package core

import (
	"fmt"
	"slices"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// Find returns the ref of the working-version octant with exactly the
// given code, or NilRef.
func (t *Tree) Find(code morton.Code) Ref {
	r := t.cur
	level := code.Level()
	for d := uint8(1); d <= level; d++ {
		o := t.readOct(r)
		r = o.Children[code.AncestorAt(d).ChildIndex()]
		if r.IsNil() {
			return NilRef
		}
	}
	return r
}

// FindLeaf returns the deepest working-version octant containing code.
func (t *Tree) FindLeaf(code morton.Code) (Ref, Octant) {
	r := t.cur
	o := t.readOct(r)
	level := code.Level()
	for d := uint8(1); d <= level; d++ {
		next := o.Children[code.AncestorAt(d).ChildIndex()]
		if next.IsNil() {
			return r, o
		}
		r = next
		o = t.readOct(r)
	}
	return r, o
}

// ForEachNode visits every working-version octant in Z-order pre-order.
// Return false from fn to stop early.
func (t *Tree) ForEachNode(fn func(r Ref, o *Octant) bool) {
	walkRead(touching{t}, t.cur, fn)
}

// ForEachCommittedNode visits every octant of the committed version.
//
// The committed version is immutable and this walk is side-effect-free on
// the tree — no access recorded, and a per-call read buffer instead of
// the shared t.scratch — so multiple goroutines may call it concurrently
// (they charge the device's own meter, whose counters are atomic). That
// is the ONLY concurrent entry point: every other Tree method, including
// the working-version walks and all mutations, shares t.scratch and the
// volatile access state and remains single-threaded by contract.
func (t *Tree) ForEachCommittedNode(fn func(r Ref, o *Octant) bool) {
	walkRead(t, t.committed, fn)
}

// readInto loads the octant at r into o through buf, charging the device
// read but recording no access.
func (t *Tree) readInto(r Ref, buf []byte, o *Octant) {
	t.arenaFor(r).Read(r.Handle(), buf)
	o.decode(buf)
}

// walk is an instrumentation walk (VersionStats, Validate): it visits the
// subtree at r in Z-order pre-order, recording each access as readOct
// does, but charges no device.
func (t *Tree) walk(r Ref, fn func(Ref, *Octant) bool) bool {
	return walkRead(quiet{t, true}, r, fn)
}

// touching reads like its Tree and records each access, as readOct does.
type touching struct{ t *Tree }

func (a touching) readInto(r Ref, buf []byte, o *Octant) {
	a.t.readInto(r, buf, o)
	a.t.touch(o.Code)
}

// quiet reads through nvbm.Discard, recording each access as touching
// does or none as its Tree does: the reader of instrumentation walks,
// which replay the accesses of the walks they stand for but charge no
// device, so observing the tree does not perturb its counts.
type quiet struct {
	t     *Tree
	touch bool
}

func (q quiet) readInto(r Ref, buf []byte, o *Octant) {
	q.t.arenaFor(r).ReadWith(nvbm.Discard, r.Handle(), buf)
	o.decode(buf)
	if q.touch {
		q.t.touch(o.Code)
	}
}

// recordReader is where a walker loads octants from: a Tree (no access
// recorded, so concurrent walks of a closed version are safe), a Tree
// recording accesses (touching), a quiet one, or a pinned version read
// through one reader's meter (pinReader).
type recordReader interface {
	readInto(r Ref, buf []byte, o *Octant)
}

// walker makes one device read per visited octant, through its own
// record buffer, and decodes into a buffer indexed by depth — fn's *Octant
// escapes, so a local per node would cost a heap allocation per visited
// octant. fn must not retain the pointer past its call. The walker holds
// its reader by value, so a two-word reader costs no allocation of its
// own.
type walker[R recordReader] struct {
	src R
	fn  func(Ref, *Octant) bool
	rec [RecordSize]byte
	buf [morton.MaxLevel + 1]Octant
}

// walkRead visits the subtree at r in Z-order pre-order, loading from src.
func walkRead[R recordReader](src R, r Ref, fn func(Ref, *Octant) bool) bool {
	if r.IsNil() {
		return true
	}
	w := walker[R]{src: src, fn: fn}
	return w.visit(r, 0)
}

func (w *walker[R]) visit(r Ref, depth int) bool {
	o := &w.buf[depth]
	w.src.readInto(r, w.rec[:], o)
	if !w.fn(r, o) {
		return false
	}
	for _, c := range o.Children {
		if !c.IsNil() && !w.visit(c, depth+1) {
			return false
		}
	}
	return true
}

// ForEachLeaf visits every working-version leaf in Z-order.
func (t *Tree) ForEachLeaf(fn func(code morton.Code, data [DataWords]float64) bool) {
	t.ForEachNode(func(r Ref, o *Octant) bool {
		if o.IsLeaf() {
			return fn(o.Code, o.Data)
		}
		return true
	})
}

// ForEachLeafInRange visits working-version leaves whose keys fall in
// [lo, hi), pruning entire subtrees whose key spans miss the interval —
// the fast path for space-filling-curve partitioned ranks.
func (t *Tree) ForEachLeafInRange(lo, hi uint64, fn func(code morton.Code, data [DataWords]float64) bool) {
	t.rangeWalk(t.cur, lo, hi, fn)
}

func (t *Tree) rangeWalk(r Ref, lo, hi uint64, fn func(morton.Code, [DataWords]float64) bool) bool {
	if r.IsNil() {
		return true
	}
	o := t.readOct(r)
	sLo, sHi := o.Code.KeySpan()
	if sHi < lo || sLo >= hi {
		return true // the whole subtree misses the interval
	}
	if o.IsLeaf() {
		if k := uint64(o.Code); k >= lo && k < hi {
			return fn(o.Code, o.Data)
		}
		return true
	}
	for _, c := range o.Children {
		if !c.IsNil() && !t.rangeWalk(c, lo, hi, fn) {
			return false
		}
	}
	return true
}

// LeafCount returns the number of working-version leaves (mesh elements),
// from the maintained counter; only a restored tree's first call counts
// with a (charged) walk.
func (t *Tree) LeafCount() int {
	if t.leafCount == 0 {
		t.ForEachLeaf(func(morton.Code, [DataWords]float64) bool { t.leafCount++; return true })
	}
	return t.leafCount
}

// NodeCount returns the number of working-version octants.
func (t *Tree) NodeCount() int {
	n := 0
	t.ForEachNode(func(Ref, *Octant) bool { n++; return true })
	return n
}

// LeafCodes returns a copy of the working-version leaf codes in Z-order,
// served from the leaf index.
func (t *Tree) LeafCodes() []morton.Code { return slices.Clone(t.index().Codes()) }

// RefineWhere refines every working-version leaf for which pred holds,
// recursively, until no leaf below maxLevel satisfies pred. New octants
// inherit their parent's data. Returns the number of leaf splits.
//
// The splits are decided over the leaf index — pred runs on every leaf
// below maxLevel in Z-order, and on the children of each split — and
// applied by one copy-on-write walk that descends only into key spans
// holding a split (DESIGN.md decision 21).
func (t *Tree) RefineWhere(pred func(morton.Code) bool, maxLevel uint8) int {
	defer t.span("Refine").End()
	seeded := t.seedSeq == t.topoSeq+1
	splits, leaves := t.changes[:0], t.refined[:0]
	for _, c := range t.index().Codes() {
		splits, leaves = decideRefine(c, pred, maxLevel, splits, leaves)
	}
	t.changes, t.refined = splits, leaves
	if len(splits) > 0 {
		t.idx.Invalidate() // until the tree has caught up
		t.cur, _ = t.splitWalk(t.cur, splits)
		t.idx.Refine(leaves)
		t.endIndexEmit()
	}
	t.recordSeeds(seeded, splits)
	t.maybeEvict()
	t.maybeGC()
	return len(splits)
}

// decideRefine appends c to splits when it splits, followed by the splits
// below it in pre-order, and appends the leaves c becomes to leaves.
func decideRefine(c morton.Code, pred func(morton.Code) bool, maxLevel uint8, splits, leaves []morton.Code) ([]morton.Code, []morton.Code) {
	if c.Level() >= maxLevel || !pred(c) {
		return splits, append(leaves, c)
	}
	splits = append(splits, c)
	for i := 0; i < 8; i++ {
		splits, leaves = decideRefine(c.Child(i), pred, maxLevel, splits, leaves)
	}
	return splits, leaves
}

// splitLeaf creates the 8 children of the leaf at r (after making it
// writable) and returns the leaf's (possibly copied) ref. o is updated to
// the written state.
func (t *Tree) splitLeaf(r Ref, o *Octant) Ref {
	nr := r
	if !t.inPlace(r, o) {
		// Path copying handled by the caller splicing nr upward.
		t.led.die(r.Handle(), o.Version, t.step)
		o.Version = t.step
		nr = t.allocIn(t.placeRegion(o.Code))
		t.stats.Copies++
	}
	for i := 0; i < 8; i++ {
		child := Octant{
			Code:    o.Code.Child(i),
			Data:    o.Data,
			Version: t.step,
		}
		cr := t.allocIn(t.placeRegion(child.Code))
		t.writeOct(cr, &child)
		o.Children[i] = cr
	}
	t.writeOct(nr, o)
	t.stats.Refines++
	t.contentSeq++
	t.topoSeq++
	if t.leafCount > 0 {
		t.leafCount += 7
	}
	if d := o.Code.Level() + 1; d > t.depth {
		t.depth = d
	}
	return nr
}

// RefineAt splits the leaf octant with exactly the given code. It panics
// if code does not name a leaf.
func (t *Tree) RefineAt(code morton.Code) {
	nr, ok := t.refineAtWalk(t.cur, code)
	if !ok {
		panic(fmt.Sprintf("core: RefineAt(%v): not a working-version leaf", code))
	}
	t.cur = nr
	t.maybeEvict()
}

func (t *Tree) refineAtWalk(r Ref, code morton.Code) (Ref, bool) {
	o := t.readOct(r)
	if o.Code == code {
		if !o.IsLeaf() {
			return r, false
		}
		return t.splitLeaf(r, &o), true
	}
	if !o.Code.IsAncestorOf(code) {
		return r, false
	}
	idx := code.AncestorAt(o.Code.Level() + 1).ChildIndex()
	c := o.Children[idx]
	if c.IsNil() {
		return r, false
	}
	nc, ok := t.refineAtWalk(c, code)
	if !ok {
		return r, false
	}
	if nc == c {
		return r, true
	}
	o.Children[idx] = nc
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, true
	}
	return t.commitOctant(r, &o), true
}

// CoarsenWhere collapses sibling groups of leaves whose parent satisfies
// pred, bottom-up, until stable within one pass. Child data is averaged
// into the parent. Returns the number of collapses.
//
// The collapses are decided by one post-order pass over the leaf index,
// which compacts it in place (tile.Store.Coarsen), and applied by one
// copy-on-write walk that descends only into key spans holding a collapse
// (DESIGN.md decision 21).
func (t *Tree) CoarsenWhere(pred func(morton.Code) bool) int {
	defer t.span("Coarsen").End()
	seeded := t.seedSeq == t.topoSeq+1
	idx := t.index()
	idx.Invalidate() // until the tree has caught up
	merged := t.changes[:0]
	idx.Coarsen(func(p morton.Code) bool {
		if !pred(p) {
			return false
		}
		merged = append(merged, p)
		return true
	})
	t.changes = merged
	if len(merged) > 0 {
		// Decided in post-order; the walk takes ancestors first.
		slices.Sort(merged)
		t.cur, _ = t.collapseWalk(t.cur, merged)
	}
	t.endIndexEmit()
	t.recordSeeds(seeded, merged)
	t.maybeEvict()
	t.maybeGC()
	return len(merged)
}

// collapseWalk collapses every octant of merged — sorted, non-empty, all
// within the span of the octant at r, each a parent of eight leaves once
// the collapses below it are done — descending only into subtrees that
// hold one. Child data is summed in child order and divided by 8. Returns
// the (possibly copied) ref and whether it changed.
func (t *Tree) collapseWalk(r Ref, merged []morton.Code) (Ref, bool) {
	o := t.readOct(r)
	collapse := merged[0] == o.Code
	if collapse {
		merged = merged[1:] // the rest lie below: they collapse first
	}
	changed := false
	for i, c := range o.Children {
		if len(merged) == 0 {
			break
		}
		_, hi := o.Code.Child(i).KeySpan()
		n := 0
		for n < len(merged) && uint64(merged[n]) <= hi {
			n++
		}
		if n == 0 {
			continue
		}
		nc, chg := t.collapseWalk(c, merged[:n])
		merged = merged[n:]
		if chg {
			o.Children[i] = nc
			changed = true
		}
	}
	if collapse {
		t.mergeChildren(&o)
		nr := t.commitOctant(r, &o)
		return nr, nr != r
	}
	if !changed {
		return r, false
	}
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, false
	}
	return t.commitOctant(r, &o), true
}

// mergeChildren makes o, the parent of eight leaves, a leaf: the children
// are discarded, and their data is summed in child order and divided by 8.
func (t *Tree) mergeChildren(o *Octant) {
	var sum [DataWords]float64
	for i, c := range o.Children {
		co := t.readOct(c)
		for w := 0; w < DataWords; w++ {
			sum[w] += co.Data[w]
		}
		t.discard(c, &co)
		o.Children[i] = NilRef
	}
	for w := 0; w < DataWords; w++ {
		o.Data[w] = sum[w] / 8
	}
	t.stats.Coarsens++
	t.contentSeq++
	t.topoSeq++
}

// UpdateLeaves applies fn to every leaf; when fn reports a change, the new
// data is stored copy-on-write. This is the solver's write path. Returns
// the number of modified leaves.
func (t *Tree) UpdateLeaves(fn func(code morton.Code, data *[DataWords]float64) bool) int {
	defer t.span("Solve").End()
	changedLeaves := 0
	nr, _ := t.updateWalk(t.cur, fn, &changedLeaves)
	t.cur = nr
	t.maybeEvict()
	return changedLeaves
}

func (t *Tree) updateWalk(r Ref, fn func(morton.Code, *[DataWords]float64) bool, n *int) (Ref, bool) {
	o := t.readOct(r)
	if o.IsLeaf() {
		if !fn(o.Code, &o.Data) {
			return r, false
		}
		*n++
		t.contentSeq++
		if t.inPlace(r, &o) {
			t.writeDataField(r, &o)
			return r, false
		}
		nr := t.commitOctant(r, &o)
		return nr, true
	}
	changed := false
	for i, c := range o.Children {
		if c.IsNil() {
			continue
		}
		nc, chg := t.updateWalk(c, fn, n)
		if chg {
			o.Children[i] = nc
			changed = true
		}
	}
	if !changed {
		return r, false
	}
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, false
	}
	nr := t.commitOctant(r, &o)
	return nr, true
}

// UpdateAt rewrites the data of the leaf containing code via fn,
// copy-on-write. It returns false if code is not covered by a leaf...
// (every location is covered; false only for out-of-tree refs).
func (t *Tree) UpdateAt(code morton.Code, fn func(data *[DataWords]float64)) bool {
	nr, ok := t.updateAtWalk(t.cur, code, fn)
	if ok {
		t.cur = nr
	}
	return ok
}

func (t *Tree) updateAtWalk(r Ref, code morton.Code, fn func(*[DataWords]float64)) (Ref, bool) {
	o := t.readOct(r)
	if o.IsLeaf() {
		fn(&o.Data)
		t.contentSeq++
		if t.inPlace(r, &o) {
			t.writeDataField(r, &o)
			return r, true
		}
		return t.commitOctant(r, &o), true
	}
	if o.Code.Level() >= code.Level() {
		// An interior octant at or below the target depth: code does not
		// name a leaf region in this tree.
		return r, false
	}
	idx := code.AncestorAt(o.Code.Level() + 1).ChildIndex()
	c := o.Children[idx]
	if c.IsNil() {
		return r, false
	}
	nc, ok := t.updateAtWalk(c, code, fn)
	if !ok {
		return r, false
	}
	if nc == c {
		return r, true
	}
	o.Children[idx] = nc
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, true
	}
	return t.commitOctant(r, &o), true
}
