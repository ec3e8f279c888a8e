package core

import "pmoctree/internal/morton"

// Z-order leaf index. Octree AMR codes that run at hardware speed
// (Cornerstone, the p4est Morton representation) iterate flat,
// Morton-sorted leaf arrays instead of pointer-chasing tree walks.
// LeafSnapshot materializes the working version's leaves into exactly
// that layout: a contiguous slice sorted by Morton code (the pre-order
// walk emits leaves in Z-order), which is also the chunkable input the
// worker pool wants.
//
// Invalidation rule: the snapshot is stamped with the tree's mutation
// sequence number, which every octant write, partial-field write and
// free bumps. Any structural or data mutation therefore invalidates it;
// the next LeafSnapshot call rebuilds with one (charged) tree walk.
// Rebuild walks go through readOct like every other traversal, so the
// modeled device accounting of an explicit snapshot is identical to the
// leaf walk it replaces.

// LeafEntry is one working-version leaf in the Z-order leaf index.
type LeafEntry struct {
	Code morton.Code
	Ref  Ref
	Data [DataWords]float64
}

// noteMutation advances the mutation sequence number that stamps the
// leaf index. Every octant write, partial-field write, and free calls it.
func (t *Tree) noteMutation() { t.mutSeq++ }

// LeafSnapshot returns the working version's leaves as a flat,
// Morton-sorted slice. The slice is cached and returned again (without
// any tree walk or device traffic) until the next mutation; callers must
// treat it as read-only and must not retain it across mutations — the
// backing array is reused by the next rebuild.
func (t *Tree) LeafSnapshot() []LeafEntry {
	if t.leafSnapOK && t.leafSnapSeq == t.mutSeq {
		t.fp.LeafIndexReuses++
		return t.leafSnap
	}
	seq := t.mutSeq
	t.leafSnap = t.leafSnap[:0]
	t.ForEachNode(func(r Ref, o *Octant) bool {
		if o.IsLeaf() {
			t.leafSnap = append(t.leafSnap, LeafEntry{Code: o.Code, Ref: r, Data: o.Data})
		}
		return true
	})
	t.leafSnapSeq = seq
	t.leafSnapOK = true
	t.leafCodesOK = false
	t.leafCount = len(t.leafSnap)
	t.fp.LeafIndexRebuilds++
	return t.leafSnap
}

// LeafCodesSnapshot returns the working version's leaf codes in Z-order,
// backed by the leaf index: when the snapshot is valid this costs no tree
// walk and no device traffic. The same read-only/reuse caveats as
// LeafSnapshot apply. Serial golden paths use LeafCodes (the charged
// walk) instead; this is the parallel driver's input.
func (t *Tree) LeafCodesSnapshot() []morton.Code {
	ls := t.LeafSnapshot()
	if !t.leafCodesOK {
		t.leafCodesSnap = t.leafCodesSnap[:0]
		for i := range ls {
			t.leafCodesSnap = append(t.leafCodesSnap, ls[i].Code)
		}
		t.leafCodesOK = true
	}
	return t.leafCodesSnap
}

// invalidateLeafIndex force-drops the snapshot (whole-tree events:
// Delete, Compact, restore) independent of the sequence stamp.
func (t *Tree) invalidateLeafIndex() {
	t.leafSnapOK = false
	t.leafCodesOK = false
	t.noteMutation()
}

// UpdateLeavesIndexed is UpdateLeaves driven by the Z-order leaf index:
// it iterates the contiguous snapshot instead of re-walking the tree,
// writes in-place leaves with a single data-field store, and routes the
// (rare) copy-on-write leaves through the UpdateAt path walk. When every
// write was in place the snapshot stays valid — repeated solver sweeps
// over an unchanged mesh pay for one walk, not one per sweep.
//
// Field results are bit-identical to UpdateLeaves (same leaves, same
// Z-order, same fn); the modeled device traffic differs — interior nodes
// are not re-read — so serial golden paths keep calling UpdateLeaves.
func (t *Tree) UpdateLeavesIndexed(fn func(code morton.Code, data *[DataWords]float64) bool) int {
	defer t.span("Solve").End()
	ls := t.LeafSnapshot()
	t.fp.IndexedLeafUpdates++
	changed := 0
	structChanged := false
	for i := range ls {
		e := &ls[i]
		data := e.Data
		if !fn(e.Code, &data) {
			continue
		}
		changed++
		if t.isCurrent(e.Ref) {
			o := Octant{Data: data}
			t.writeDataField(e.Ref, &o)
			e.Data = data // keep the snapshot entry coherent
		} else {
			t.UpdateAt(e.Code, func(d *[DataWords]float64) { *d = data })
			structChanged = true
		}
	}
	if !structChanged {
		// Only in-place data stores happened and the snapshot entries were
		// patched along the way: revalidate it so the next sweep skips the
		// walk entirely.
		t.leafSnapSeq = t.mutSeq
		t.fp.IndexedInPlaceSkips++
	}
	t.maybeEvict()
	return changed
}
