package core

import "pmoctree/internal/morton"

// maybeEvict merges least-frequently-accessed C0 subtrees out to C1 while
// DRAM utilization exceeds the configured watermark (§3.2: "a
// least-frequently-accessed subtree will be removed from C0 and merged
// with C1" before OS page swapping would start).
func (t *Tree) maybeEvict() {
	for t.dram.Utilization() >= t.cfg.ThresholdDRAM {
		victim, ok := t.leastAccessedHot()
		if !ok {
			// No hot subtrees left to evict; the trunk alone exceeds the
			// budget, so future placements fall back to NVBM once the
			// hot set is empty. Nothing more to do.
			return
		}
		t.evictSubtree(victim)
	}
}

// leastAccessedHot returns the hot subtree root with the lowest access
// count this step.
func (t *Tree) leastAccessedHot() (morton.Code, bool) {
	var best morton.Code
	bestN := ^uint64(0)
	found := false
	for c := range t.hot {
		n := t.access[c]
		if !found || n < bestN || (n == bestN && c < best) {
			best, bestN, found = c, n, true
		}
	}
	return best, found
}

// evictSubtree removes code from the hot set and moves its DRAM-resident
// octants to NVBM, splicing the relocated subtree into the (path-copied)
// trunk.
func (t *Tree) evictSubtree(code morton.Code) {
	defer t.span("Merge").End()
	delete(t.hot, code)
	// The victim's access count dies with its hot-set membership: a
	// subtree re-entering the hot set must re-earn its frequency, not
	// inherit the pre-eviction count (which would rank it ahead of
	// subtrees that earned their accesses since, skewing LFA eviction
	// order and the TTransform promotion ratio). Post-eviction touches of
	// the relocated subtree re-create the entry with exactly the
	// post-eviction signal.
	delete(t.access, code)
	nr, _ := t.evictWalkTrunk(t.cur, code)
	t.cur = nr
	t.c0.clearUnder(code)
	t.stats.Merges++
}

// evictWalkTrunk descends the trunk to the subtree root at code, moves
// that subtree to NVBM, and splices the new ref upward (copy-on-write
// along the path, which ends in NVBM octants only — preserving the region
// invariant).
func (t *Tree) evictWalkTrunk(r Ref, code morton.Code) (Ref, bool) {
	o := t.readOct(r)
	if o.Code == code {
		nr := t.moveToNVBM(r, code)
		return nr, nr != r
	}
	if !o.Code.IsAncestorOf(code) {
		return r, false
	}
	idx := code.AncestorAt(o.Code.Level() + 1).ChildIndex()
	c := o.Children[idx]
	if c.IsNil() {
		return r, false
	}
	nc, chg := t.evictWalkTrunk(c, code)
	if !chg {
		return r, false
	}
	o.Children[idx] = nc
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, false
	}
	// The trunk octant itself is shared: copy it. The eviction path must
	// not re-enter DRAM placement for the subtree being evicted, but the
	// trunk stays wherever placeRegion puts it (DRAM), which is fine: the
	// relocated subtree root below is NVBM and NVBM octants never point
	// at it downward.
	nr := t.commitOctant(r, &o)
	return nr, nr != r
}

// moveToNVBM relocates every DRAM-resident octant of the working
// subtree at r, whose code is code, into NVBM, post-order, freeing the
// DRAM slots.
//
// The walk goes only where a C0 octant can be. Octants shared with the
// committed version are closed under NVBM (the committed version's
// region invariant) and are returned untouched. Working-version NVBM
// octants may legally reference DRAM children mid-step — such edges are
// crash-safe because those octants are unreachable from the committed
// root — so the walk reads the ones whose key span holds a C0 octant
// (t.c0) and patches any relocated children in place. Shared and
// working slots are told apart by the GC ledger, and C0 spans by the
// host-side span map, so neither costs a device read.
//
// The destination slot of a moved octant is allocated BEFORE descending,
// so the moved octants take their NVBM handles in pre-order, and each is
// written once, with its final children.
func (t *Tree) moveToNVBM(r Ref, code morton.Code) Ref {
	if t.mergeOracle != nil {
		return t.mergeOracle(t, r)
	}
	return t.moveToNVBMUnder(r, code)
}

func (t *Tree) moveToNVBMUnder(r Ref, code morton.Code) Ref {
	if r.IsNil() {
		return r
	}
	if !r.InDRAM() {
		if !t.bornWorking(r) || !t.c0.below(code) {
			// A shared subtree is closed under NVBM already; below a
			// working octant with no C0 span nothing moves.
			return r
		}
		o := t.readOct(r)
		changed := false
		for i, c := range o.Children {
			if c.IsNil() {
				continue
			}
			if nc := t.moveToNVBMUnder(c, code.Child(i)); nc != c {
				o.Children[i] = nc
				changed = true
			}
		}
		if changed {
			t.writeChildren(r, &o)
		}
		return r
	}
	o := t.readOct(r)
	nr := t.allocIn(false)
	for i, c := range o.Children {
		if !c.IsNil() {
			o.Children[i] = t.moveToNVBMUnder(c, code.Child(i))
		}
	}
	t.writeOct(nr, &o)
	t.dram.Free(r.Handle())
	return nr
}

// bornWorking reports, from the GC ledger alone, whether the NVBM slot at
// r belongs to the working version's mutable set: it is live and was born
// in the working step. For a slot the working version reaches, that is
// exactly what a device read of its version tag would say.
func (t *Tree) bornWorking(r Ref) bool {
	i := int(r.Handle()) - 1
	return i < len(t.led.born) && t.led.born[i] == t.step && t.nv.Live(r.Handle())
}

// Persist commits the working version as the new persistent version
// (pm_persistent, Table 1):
//
//  1. Merge: every DRAM octant of V(i) moves to NVBM, so the version is
//     closed under NVBM. The walk visits only the paths to C0 octants.
//  2. Commit (commit.go): land the allocation-bitmap words dirtied since
//     the previous commit, push V(i-1) onto the fallback ring, store the
//     step, then a single 8-byte store of the root ref into the arena's
//     root table makes the new version durable. Crash before this store
//     recovers V(i-1); after it, V(i).
//  3. GC: octants reachable only from the old version are swept.
//  4. Transform: the hot set for the next step is re-derived by
//     feature-directed sampling (or obliviously when disabled).
//
// The version is durable when Persist returns. It returns the number of
// octants garbage-collected.
func (t *Tree) Persist() int {
	defer t.span("Persist").End()
	t.cur = t.moveToNVBM(t.cur, morton.Root)
	t.c0.reset() // the merge drained C0
	t.commit()
	t.committed = t.cur
	t.committedStep = t.step
	t.commitSeq = t.contentSeq
	t.led.roots[t.step] = t.cur
	t.step++
	t.stats.Persists++
	freed := 0
	if t.stats.Persists%t.cfg.GCEvery == 0 {
		freed = t.GC()
	}
	t.retarget()
	t.access = map[morton.Code]uint64{}
	t.lastPeakDRAMUtil = t.peakDRAMUtil
	t.peakDRAMUtil = 0
	return freed
}

// c0SpanLevel is the deepest level the C0 span map resolves. Its level
// bitsets are allocated on first use; the deepest holds 8^7 bits
// (256 KiB), and only a tree with C0 octants below level 7 needs it.
const c0SpanLevel = 7

// c0Spans is the merge's host-side map of the key spans that hold a C0
// octant (DESIGN decision 7): bit i of lv[l] is set when some C0 octant
// lies strictly below the level-l cell with Z-order index i. Storing a C0
// octant marks its ancestors' cells; one deeper than c0SpanLevel+1 marks
// its level-c0SpanLevel ancestor, so a span below that level is answered
// for its whole level-c0SpanLevel cell. The merge clears what it drains.
// An octant freed any other way leaves its marks, which cost only a
// descent that finds nothing to move.
type c0Spans struct {
	lv [c0SpanLevel + 1][]uint64
}

// spanIndex is the Z-order index of c's level-l ancestor (l ≤ c's level),
// or of c's first level-l descendant (l ≥ c's level).
func spanIndex(c morton.Code, l uint8) uint64 {
	return uint64(c) >> (6 + 3*(morton.MaxLevel-uint(l)))
}

// mark records a C0 octant at c, climbing from its deepest cell. A marked
// cell's ancestors are all marked, so the first cell already marked ends
// the climb.
func (s *c0Spans) mark(c morton.Code) {
	if c.Level() == 0 {
		return
	}
	for l := min(c.Level()-1, c0SpanLevel); ; l-- {
		w := s.lv[l]
		if w == nil {
			w = make([]uint64, max(1, int(1)<<(3*l)/64))
			s.lv[l] = w
		}
		i := spanIndex(c, l)
		if w[i/64]&(1<<(i%64)) != 0 {
			return
		}
		w[i/64] |= 1 << (i % 64)
		if l == 0 {
			return
		}
	}
}

// below reports whether a C0 octant may lie strictly below c.
func (s *c0Spans) below(c morton.Code) bool {
	l := min(c.Level(), c0SpanLevel)
	w := s.lv[l]
	if w == nil {
		return false
	}
	i := spanIndex(c, l)
	return w[i/64]&(1<<(i%64)) != 0
}

// clearUnder records that no C0 octant is left at or below c. Ancestors
// keep their marks: other C0 octants may lie below them.
func (s *c0Spans) clearUnder(c morton.Code) {
	for l := c.Level(); l <= c0SpanLevel; l++ {
		if w := s.lv[l]; w != nil {
			lo := spanIndex(c, l)
			clearRange(w, lo, lo+1<<(3*(l-c.Level())))
		}
	}
}

// reset records that C0 is empty.
func (s *c0Spans) reset() {
	for _, w := range s.lv {
		clear(w)
	}
}

// clearRange clears bits [lo, hi) of w.
func clearRange(w []uint64, lo, hi uint64) {
	for lo < hi {
		b := lo % 64
		n := min(64-b, hi-lo)
		w[lo/64] &^= (uint64(1)<<n - 1) << b
		lo += n
	}
}
