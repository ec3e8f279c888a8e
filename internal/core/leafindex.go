package core

import (
	"slices"

	"pmoctree/internal/morton"
)

// Z-order leaf index. Octree AMR codes that run at hardware speed
// (Cornerstone, the p4est Morton representation) treat the flat,
// Morton-sorted leaf array with its payload as the primary structure and
// the tree as something derived. The index is the working version's leaves
// in exactly that layout: a contiguous slice of (code, payload) sorted by
// Morton code, holding nothing that depends on where an octant is stored.
//
// Validity (DESIGN.md decision 19): the index is stamped with contentSeq,
// which advances only when topology or leaf payload changes — relocating
// an octant (C0 eviction, the Persist merge, Compact) leaves it valid.
// Every operation that already visits all leaves in Z-order leaves the
// index behind as a by-product instead of invalidating it: the Refine and
// Coarsen walks re-emit it, Balance expands it from its key-space closure,
// and the batch writer (scatter.go) patches payload in place. Only the
// single-leaf and reference paths (UpdateLeaves, UpdateAt, RefineAt)
// invalidate, and the next LeafSnapshot then rebuilds with one charged
// tree walk.

// LeafEntry is one working-version leaf in the Z-order leaf index.
type LeafEntry struct {
	Code morton.Code
	Data [DataWords]float64
}

// beginIndexEmit starts re-deriving the index from a walk that visits
// every leaf in Z-order; the walk calls emitLeaf per leaf and endIndexEmit
// when done. The index reads invalid in between, so a walk cut short by a
// panic never leaves a partial index behind.
func (t *Tree) beginIndexEmit() {
	t.leafSnap = t.leafSnap[:0]
	t.leafSnapOK = false
}

func (t *Tree) emitLeaf(o *Octant) {
	t.leafSnap = append(t.leafSnap, LeafEntry{Code: o.Code, Data: o.Data})
}

// endIndexEmit stamps the index valid for the current content.
func (t *Tree) endIndexEmit() {
	t.leafSnapSeq = t.contentSeq
	t.leafSnapOK = true
	t.leafCodesOK = false
	t.leafCount = len(t.leafSnap)
}

// indexValid reports whether the index mirrors the working version.
func (t *Tree) indexValid() bool { return t.leafSnapOK && t.leafSnapSeq == t.contentSeq }

// LeafSnapshot returns the working version's leaves as a flat,
// Morton-sorted slice. The slice is cached and returned again (without
// any tree walk or device traffic) while it is valid; callers must treat
// it as read-only and must not retain it across mutations — the backing
// array is reused.
func (t *Tree) LeafSnapshot() []LeafEntry {
	if t.indexValid() {
		t.fp.LeafIndexReuses++
		return t.leafSnap
	}
	t.beginIndexEmit()
	t.ForEachNode(func(_ Ref, o *Octant) bool {
		if o.IsLeaf() {
			t.emitLeaf(o)
		}
		return true
	})
	t.endIndexEmit()
	t.fp.LeafIndexRebuilds++
	return t.leafSnap
}

// LeafCodesSnapshot returns the working version's leaf codes in Z-order,
// backed by the leaf index: when the index is valid this costs no tree
// walk and no device traffic. The same read-only/reuse caveats as
// LeafSnapshot apply.
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

// refineIndex replaces the index by leaves, a Key-sorted refinement of it
// (every code equal to or a descendant of an index leaf): each new entry
// inherits the payload of the entry that covers it, the way a split copies
// payload down to the children. The caller took LeafCodesSnapshot before it
// split anything, so leafCodesSnap still names the old entries. The
// expansion runs back to front in place — entry j is only ever filled from
// an entry at or before j — so Balance keeps no second index alive.
func (t *Tree) refineIndex(leaves []morton.Code) {
	old := t.leafCodesSnap
	t.leafSnap = slices.Grow(t.leafSnap[:len(old)], len(leaves)-len(old))[:len(leaves)]
	i := len(old) - 1
	for j := len(leaves) - 1; j >= 0; j-- {
		for old[i].Key() > leaves[j].Key() {
			i--
		}
		t.leafSnap[j] = LeafEntry{Code: leaves[j], Data: t.leafSnap[i].Data}
	}
	t.leafCodesSnap = append(old[:0], leaves...)
	t.leafSnapSeq = t.contentSeq
}

// UpdateLeavesIndexed is UpdateLeaves driven by the leaf index: fn runs
// over the flat index instead of a tree walk, and the changed leaves are
// stored by one batched copy-on-write walk (writeLeafBatch), which leaves
// index and tree coherent. Field results, the returned count and the COW
// copies are identical to UpdateLeaves (same leaves, same Z-order, same
// fn); the modeled device traffic is lower — only octants on a path to a
// changed leaf are read, each once.
func (t *Tree) UpdateLeavesIndexed(fn func(code morton.Code, data *[DataWords]float64) bool) int {
	defer t.span("Solve").End()
	ls := t.LeafSnapshot()
	t.leafSnapOK = false // entries run ahead of the tree until the batch lands
	dirty := t.dirtyPos[:0]
	var data [DataWords]float64
	for i := range ls {
		data = ls[i].Data
		if fn(ls[i].Code, &data) {
			ls[i].Data = data
			dirty = append(dirty, int32(i))
		}
	}
	t.dirtyPos = dirty
	t.writeLeafBatch(dirty)
	t.maybeEvict()
	return len(dirty)
}
