package core

import (
	"time"

	"pmoctree/internal/morton"
	"pmoctree/internal/tile"
)

// Z-order leaf index (DESIGN.md decision 19). Octree AMR codes that run at
// hardware speed (Cornerstone, the p4est Morton representation) treat the
// flat, Morton-sorted leaf array with its payload as the primary structure
// and the tree as something derived. The index is the working version's
// leaves in exactly that layout, one tile.Store: codes in Z-order, payload
// as SoA field slices, holding nothing that depends on where an octant is
// stored. The hot kernels sweep it directly (LeafTiles); there is no second
// copy to gather into.
//
// Validity: the index is stamped with contentSeq, which advances only when
// topology or leaf payload changes — relocating an octant (C0 eviction, the
// Persist merge, Compact) leaves it valid. The key-space operations keep
// it valid instead of invalidating it: RefineWhere decides over it and
// expands it in place (tile.Store.Refine), CoarsenWhere decides and
// compacts it in one pass (tile.Store.Coarsen), Balance refines it in place
// from its key-space closure, and the batch writer (scatter.go) stores
// payload from it. Only the single-leaf and reference paths (UpdateLeaves,
// UpdateAt, RefineAt) invalidate, and the next reader then rebuilds it with
// one charged tree walk.

// The index carries the octree payload verbatim.
var _ = [1]struct{}{}[tile.Words-DataWords]

// FastPathStats counts leaf-index and tile activity. They are host-side
// observability counters, independent of the modeled devices.
type FastPathStats struct {
	// CacheHits and CacheMisses are always zero: there is no octant cache.
	CacheHits, CacheMisses uint64
	LeafIndexRebuilds      uint64 // leaf-index rebuild walks
	LeafIndexReuses        uint64 // leaf index served without a walk
	TileRebuilds           uint64 // LeafTiles tile-bound cuts (the leaf set changed)
	TileReuses             uint64 // LeafTiles served without a cut
	TileRebuildNs          uint64 // wall time spent cutting tile bounds
	TileScatters           uint64 // ScatterLeafTiles calls
	TileScatterBytes       uint64 // field bytes written back to the tree
	// TransformIndexRebuilds counts layout passes that found the leaf index
	// invalid and re-derived its codes by an uncharged walk.
	TransformIndexRebuilds uint64
}

// FastPath returns the fast-path counters.
func (t *Tree) FastPath() FastPathStats { return t.fp }

// beginIndexEmit starts re-deriving the index from a walk that visits
// every leaf in Z-order; the walk calls emitLeaf per leaf and endIndexEmit
// when done. The index reads invalid in between, so a walk cut short by a
// panic never leaves a partial index behind. A loan ends here: the walk
// rewrites every payload from the tree.
func (t *Tree) beginIndexEmit() {
	t.settle()
	t.idx.Invalidate()
	t.idx.Truncate(0)
}

func (t *Tree) emitLeaf(o *Octant) { t.idx.Append(o.Code, o.Data) }

// endIndexEmit stamps the index valid for the current content.
func (t *Tree) endIndexEmit() {
	t.idx.Stamp(t.contentSeq)
	t.leafCount = t.idx.N()
}

// settle ends a loan that no ScatterLeafTiles closed. Marked cells hold
// edits the tree never received: they are discarded by dropping the index,
// which the next reader rebuilds from the tree. A loan without marks (a
// read-only borrower) ends at no cost.
func (t *Tree) settle() {
	if !t.lent {
		return
	}
	t.lent = false
	if t.idx.HasDirty() {
		t.idx.ClearDirty()
		t.idx.Invalidate()
	}
}

// index returns the leaf index, valid for the working version: as is while
// valid, else rebuilt with one charged tree walk.
func (t *Tree) index() *tile.Store {
	t.settle()
	if t.idx.ValidFor(t.contentSeq) {
		t.fp.LeafIndexReuses++
		return &t.idx
	}
	t.emitWalk(touching{t})
	t.endIndexEmit()
	t.fp.LeafIndexRebuilds++
	return &t.idx
}

// emitWalk re-derives the index entries with one walk of the working
// version read from src, leaving them unstamped.
func (t *Tree) emitWalk(src recordReader) {
	t.beginIndexEmit()
	walkRead(src, t.cur, func(_ Ref, o *Octant) bool {
		if o.IsLeaf() {
			t.emitLeaf(o)
		}
		t.fillers = t.fillers || o.Filler()
		return true
	})
}

// transformCodes returns the working version's leaf codes for the layout
// pass (transform.go). A valid index is read as is: codes only, so an open
// loan stays open and the reuse counter does not move. An invalid one is
// re-derived by a walk that charges no device — the layout pass is
// instrumentation (DESIGN.md decision 8) — and left unstamped, so the
// next charged reader still pays its rebuild walk.
func (t *Tree) transformCodes() []morton.Code {
	if t.idx.ValidFor(t.contentSeq) {
		return t.idx.Codes()
	}
	t.emitWalk(quiet{t, true})
	t.fp.TransformIndexRebuilds++
	return t.idx.Codes()
}

// LeafCodesSnapshot returns the working version's leaf codes in Z-order,
// the index's own spine: when the index is valid this costs no tree walk
// and no device traffic. Callers must treat it as read-only and must not
// retain it across mutations — the backing array is reused.
func (t *Tree) LeafCodesSnapshot() []morton.Code { return t.index().Codes() }

// LeafTiles lends the leaf index to a kernel: callers sweep the store's
// flat slices, MarkDirty every modified cell, and hand the store back to
// ScatterLeafTiles. The tile bounds are recut only when the leaf set
// changed since the last cut (the Gather span and TileRebuilds); a rebuild
// walk runs first only when the index is invalid.
//
// Kernels edit the index in place, so an edit that never reaches
// ScatterLeafTiles must not survive as index content. Until the scatter the
// store stays on loan: LeafTiles hands the same store out again with its
// edits while the tree is unchanged, and ScatterLeafTiles stores every
// marked cell. Any other use of the index ends the loan first and discards
// marked edits by dropping the index, so it never reads valid while it
// disagrees with the tree. A cell written without MarkDirty is a caller
// error. The store must not be retained across tree mutations.
func (t *Tree) LeafTiles() *tile.Store {
	if t.lent && t.idx.ValidFor(t.contentSeq) {
		t.fp.LeafIndexReuses++
		t.fp.TileReuses++
		return &t.idx
	}
	idx := t.index()
	if idx.Tiled() {
		t.fp.TileReuses++
	} else {
		sp := t.span("Gather")
		start := time.Now()
		idx.Retile()
		t.fp.TileRebuilds++
		t.fp.TileRebuildNs += uint64(time.Since(start).Nanoseconds())
		sp.End()
	}
	idx.ClearDirty()
	t.lent = true
	return idx
}

// ScatterLeafTiles ends the loan LeafTiles made: the store's marked cells
// are written into the tree by one batched copy-on-write walk
// (writeLeafBatch), and the number written is returned. The index stays
// valid — the next LeafTiles is free.
//
// The store must be the one LeafTiles lent, still valid for the current
// content sequence (i.e. neither topology nor payload changed behind it);
// a stale or foreign store panics rather than silently scattering into the
// wrong mesh.
func (t *Tree) ScatterLeafTiles(st *tile.Store) int {
	if st != &t.idx || !t.lent || !st.ValidFor(t.contentSeq) {
		panic("core: ScatterLeafTiles on a stale or foreign tile store")
	}
	defer t.span("Scatter").End()
	n := t.storeMarked()
	t.fp.TileScatters++
	t.fp.TileScatterBytes += uint64(n) * 8 * DataWords
	return n
}

// TileOccupancy returns the mean tile fill of the current leaf tiling
// (cutting it if needed); a metrics convenience.
func (t *Tree) TileOccupancy() float64 { return t.LeafTiles().Occupancy() }

// UpdateLeavesIndexed is UpdateLeaves driven by the leaf index: fn runs
// over the flat index instead of a tree walk, and the changed leaves are
// stored by one batched copy-on-write walk (writeLeafBatch), which leaves
// index and tree coherent. Field results, the returned count and the COW
// copies are identical to UpdateLeaves (same leaves, same Z-order, same
// fn); the modeled device traffic is lower — only octants on a path to a
// changed leaf are read, each once.
func (t *Tree) UpdateLeavesIndexed(fn func(code morton.Code, data *[DataWords]float64) bool) int {
	defer t.span("Solve").End()
	idx := t.index()
	idx.ClearDirty()
	t.lent = true // entries run ahead of the tree until the batch lands
	for i, c := range idx.Codes() {
		data := idx.Load(i)
		if fn(c, &data) {
			idx.Set(i, data)
			idx.MarkDirty(i)
		}
	}
	return t.storeMarked()
}

// storeMarked stores the index payload of every marked cell into the
// working version — the body ScatterLeafTiles and UpdateLeavesIndexed
// share — and returns how many it stored.
func (t *Tree) storeMarked() int {
	dirty := t.dirtyPos[:0]
	t.idx.ForEachDirty(func(i int) { dirty = append(dirty, int32(i)) })
	t.dirtyPos = dirty
	t.lent = false
	t.writeLeafBatch(dirty)
	t.maybeEvict()
	return len(dirty)
}
