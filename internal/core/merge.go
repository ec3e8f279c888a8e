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
	t.stats.Merges++
}

// evictWalkTrunk descends the trunk to the subtree root at code, moves
// that subtree to NVBM, and splices the new ref upward (copy-on-write
// along the path, which ends in NVBM octants only — preserving the region
// invariant).
func (t *Tree) evictWalkTrunk(r Ref, code morton.Code) (Ref, bool) {
	o := t.readOct(r)
	if o.Code == code {
		nr := t.moveToNVBM(r)
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
		t.writeParentField(nc, r)
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

// constructCleanNow reports whether the working version is exactly the
// output of a ConstructFromCodes with no mutation since (construct.go):
// the only state in which Persist may skip the merge walk.
func (t *Tree) constructCleanNow() bool {
	return t.constructClean && t.mutSeq == t.constructSeq
}

// moveToNVBM relocates every DRAM-resident octant reachable from r into
// NVBM, post-order, freeing the DRAM slots.
//
// Octants shared with the committed version are closed under NVBM (the
// committed version's region invariant) and are returned untouched.
// Working-version NVBM octants, however, may legally reference DRAM
// children mid-step — such edges are crash-safe because those octants are
// unreachable from the committed root — so the walk traverses them and
// patches any relocated children in place.
//
// The destination slot of a moved octant is allocated BEFORE descending,
// so children are written with their final parent ref already in their
// record, avoiding a parent-field fix-up write per child.
func (t *Tree) moveToNVBM(r Ref) Ref { return t.moveToNVBMUnder(r, NilRef, false) }

func (t *Tree) moveToNVBMUnder(r, parent Ref, setParent bool) Ref {
	if r.IsNil() {
		return r
	}
	if !r.InDRAM() {
		if !t.isCurrent(r) {
			return r // shared subtree: closed under NVBM already
		}
		o := t.readOct(r)
		var chIdx [8]bool
		changed := false
		for i, c := range o.Children {
			nc := t.moveToNVBMUnder(c, r, false)
			if nc != c {
				o.Children[i] = nc
				chIdx[i] = true
				changed = true
			}
		}
		if changed {
			t.writeChildren(r, &o)
			t.reparentChanged(r, &o, &chIdx)
		}
		if setParent && o.Parent != parent {
			t.writeParentField(r, parent)
		}
		return r
	}
	o := t.readOct(r)
	nr := t.allocIn(false)
	for i, c := range o.Children {
		o.Children[i] = t.moveToNVBMUnder(c, nr, true)
	}
	if setParent {
		o.Parent = parent
	}
	if t.pipe.staging {
		t.stageOct(nr, &o)
	} else {
		t.writeOct(nr, &o)
	}
	t.dram.Free(r.Handle())
	t.cacheDrop(r) // the DRAM handle is recycled by later allocations
	return nr
}

// stageOct is writeOct for a pipelined persist merge: the encoded record
// joins the pipeline's staging delta instead of being stored (the
// background worker writes it back, charging the device write then),
// while the host-side write-through — decoded cache, mutation sequence,
// access accounting — happens exactly as in writeOct.
func (t *Tree) stageOct(r Ref, o *Octant) {
	t.pipe.stageRecord(r.Handle(), o)
	t.cachePut(r, o)
	t.mutSeq++
	t.touch(o.Code)
}

// Persist commits the working version as the new persistent version
// (pm_persistent, Table 1):
//
//  1. Merge: every DRAM octant of V(i) moves to NVBM, so the version is
//     closed under NVBM.
//  2. Commit: commitBatch lands the allocation-bitmap words dirtied since
//     the previous commit, pushes V(i-1) onto the fallback ring, then a
//     single 8-byte store of the root ref into the arena's root table
//     makes the new version durable. Crash before this store recovers
//     V(i-1); after it, V(i).
//  3. GC: octants reachable only from the old version are swept.
//  4. Transform: the hot set for the next step is re-derived by
//     feature-directed sampling (or obliviously when disabled).
//
// It returns the number of octants garbage-collected.
//
// At Config.PipelineDepth 0 the commit runs inline. With PipelineDepth > 0
// the merge stages its delta in host memory and the persist worker writes
// it back and commits (see pipeline.go); durability trails until the
// worker's commit-record flip (or an explicit Flush). Either way the
// mutator's committed/step counters advance here, so step i+1 and the
// whole digest history are the same at every depth: content never
// depends on WHEN records reach the device.
func (t *Tree) Persist() int {
	defer t.span("Persist").End()
	p := t.pipe
	// A worker that died (power cut mid-writeback) surfaces here, where an
	// inline commit would have hit the same device failure.
	p.checkFailure()
	p.beginStage()
	if t.constructCleanNow() {
		// ConstructFromCodes just rebuilt the working version entirely in
		// NVBM with exact parent links, and nothing mutated since: the
		// merge walk would visit every octant to move nothing. Skip it.
		t.constructClean = false
	} else {
		t.constructClean = false
		t.cur = t.moveToNVBM(t.cur)
	}
	req := &commitReq{root: t.cur, step: t.step, delta: p.endStage(), nv: t.nv}
	req.bits, req.hw = t.nv.TakeDirtyBits(nil)
	p.commit(req)
	t.committed = t.cur
	t.committedStep = t.step
	t.led.roots[t.step] = t.cur
	t.step++
	// Commit is an epoch boundary for the decoded-octant cache: the merge
	// recycled every DRAM handle and the version tags just changed meaning.
	t.cacheInvalidateAll()
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
