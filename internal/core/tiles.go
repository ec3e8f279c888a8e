package core

import (
	"time"

	"pmoctree/internal/tile"
)

// Tiled SoA leaf storage (DESIGN.md decisions 16 and 19). The Z-order leaf
// index (leafindex.go) holds the working version's leaves as one flat
// Morton-sorted slice; LeafTiles transposes that AoS index into the
// tile.Store SoA layout the hot kernels sweep, and ScatterLeafTiles writes
// the modified cells back through the batch writer (scatter.go).
//
// Validity: the store is stamped with the same content sequence number as
// the leaf index, which only topology and payload changes advance. A
// scatter patches index and tree from the store and re-stamps both, and
// relocation (C0 eviction, the Persist merge) touches neither, so solve
// steps on an unchanged mesh pay ZERO re-gathers, across commits too. A
// gather reads only the index (no tree walk, no device traffic beyond what
// LeafSnapshot itself charges when it has to rebuild); the modeled device
// cost of the solve lives in the scatter's copy-on-write walk.

// The tile layout carries the octree payload verbatim.
var _ = [1]struct{}{}[tile.Words-DataWords]

// LeafTiles returns the tiled SoA image of the working version's leaves,
// gathering (or re-gathering) only when a mutation invalidated the cached
// store. Callers sweep the returned store's flat slices, MarkDirty every
// modified cell, and hand the store back to ScatterLeafTiles; they must
// not retain it across tree mutations.
func (t *Tree) LeafTiles() *tile.Store {
	if t.tiles != nil && t.tiles.ValidFor(t.contentSeq) {
		t.fp.TileReuses++
		return t.tiles
	}
	defer t.span("Gather").End()
	start := time.Now()
	ls := t.LeafSnapshot()
	codes := t.LeafCodesSnapshot()
	if t.tiles == nil {
		t.tiles = new(tile.Store)
	}
	t.tiles.Reset(codes)
	for i := range ls {
		t.tiles.Set(i, ls[i].Data)
	}
	t.tiles.Stamp(t.contentSeq)
	t.fp.TileRebuilds++
	t.fp.TileRebuildNs += uint64(time.Since(start).Nanoseconds())
	t.fp.TileGatherBytes += uint64(len(ls)) * 8 * DataWords
	return t.tiles
}

// ScatterLeafTiles writes the store's dirty cells back into the tree and
// returns the number of cells written: the leaf index is patched from the
// store and one batched copy-on-write walk stores the patched leaves
// (writeLeafBatch). Index and store stay valid — the next LeafTiles is
// free.
//
// The store must be the one LeafTiles returned, still valid for the
// current content sequence (i.e. neither topology nor payload changed
// behind it); a stale store panics rather than silently scattering into the
// wrong mesh.
func (t *Tree) ScatterLeafTiles(st *tile.Store) int {
	if st == nil || st != t.tiles || !st.ValidFor(t.contentSeq) {
		panic("core: ScatterLeafTiles on a stale or foreign tile store")
	}
	defer t.span("Scatter").End()
	ls := t.LeafSnapshot()
	dirty := t.dirtyPos[:0]
	st.ForEachDirty(func(i int) {
		ls[i].Data = st.Load(i)
		dirty = append(dirty, int32(i))
	})
	st.ClearDirty()
	t.dirtyPos = dirty
	t.writeLeafBatch(dirty)
	st.Stamp(t.contentSeq)
	t.fp.TileScatters++
	t.fp.TileScatterBytes += uint64(len(dirty)) * 8 * DataWords
	t.maybeEvict()
	return len(dirty)
}

// TileOccupancy returns the mean tile fill of the current leaf tiling
// (gathering if needed); a metrics convenience.
func (t *Tree) TileOccupancy() float64 { return t.LeafTiles().Occupancy() }
