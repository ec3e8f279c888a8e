// Package tile implements the flat Morton-ordered SoA leaf storage behind
// the hot solve/advect kernels. The per-leaf octree payload is a 4-word
// AoS record reached through a tree walk; sweeping it leaf by leaf chases
// pointers and starves the arithmetic. Octree codes that run at hardware
// speed flatten quadrants into Morton-indexed SoA arrays (the p4est AVX2
// representation) or store fixed-size tiles per octree node (the CUDA AMR
// exemplar in SNIPPETS.md). A Store is exactly that layout for PM-octree:
// the Z-order leaf index (core.LeafSnapshot) is the spine, each field word
// becomes one contiguous float64 slice, and the cells are partitioned into
// fixed-capacity tiles that never span a coarse-ancestor boundary — the
// scheduling and reporting granule.
//
// The Store itself is pure layout: it does not know about the octree. The
// owner (core.Tree) gathers leaf data in, stamps the store with its
// content sequence number, and scatters dirty cells back; see
// core.LeafTiles / core.ScatterLeafTiles for the validity protocol.
// Kernels sweep F[w][lo:hi] ranges handed out by RunTileRanges in
// cache-line-contiguous, tile-aligned chunks.
package tile

import (
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// Words is the number of per-cell field words, matching the octree payload
// (core.DataWords). The compile-time asserts in the consuming packages pin
// the agreement.
const Words = 4

// Size is the tile capacity in cells. A tile is the up-to-Size leaves of
// one anchor octant two levels up (4x4x4 descendants when uniformly
// refined, the CUDA-AMR "tile per node" shape scaled to the payload): 64
// cells x 8 bytes = 512 B per field slice per tile, eight cache lines of
// perfectly contiguous sweep per field.
const Size = 64

// anchorOf returns the octant whose descendants may share a tile with c:
// the ancestor two levels up (the 4^3 tile parent), or the root for
// shallow leaves. Equal anchors imply equal levels (the anchor is exactly
// two levels up), so a tile is always Size-or-fewer same-level cells under
// one coarse octant — the occupancy histogram then reads as "how uniformly
// refined is the mesh under its tile anchors".
func anchorOf(c morton.Code) morton.Code {
	if l := c.Level(); l >= 2 {
		return c.AncestorAt(l - 2)
	}
	return morton.Root
}

// Store is one gathered SoA image of a Z-ordered leaf set.
//
// The zero value is an empty store; Reset builds the layout. A Store is
// safe for concurrent READ access and for concurrent writes to DISTINCT
// cells (the dirty flags are one byte per cell, so neighboring cells in
// different pool chunks never share a write target).
type Store struct {
	codes []morton.Code
	// F holds the field values: F[w][i] is word w of cell i, in the same
	// Z-order as codes. Kernels index the slices directly.
	F [Words][]float64

	// starts are the tile boundaries: tile t covers cells
	// [starts[t], starts[t+1]). len(starts) = Tiles()+1.
	starts []int32

	// dirty[i] marks cell i as modified since the last gather/scatter.
	// One byte per cell so parallel sweeps on disjoint ranges never write
	// the same word (a packed bitset would race across tile boundaries).
	dirty []bool

	seq     uint64
	stamped bool
}

// Reset rebuilds the store's layout over the given Z-ordered leaf codes,
// reusing the backing arrays. Field values are NOT cleared — the caller
// gathers them right after — but every dirty flag is. The codes slice is
// copied; the caller keeps ownership.
func (s *Store) Reset(codes []morton.Code) {
	n := len(codes)
	s.codes = append(s.codes[:0], codes...)
	for w := 0; w < Words; w++ {
		if cap(s.F[w]) < n {
			s.F[w] = make([]float64, n)
		} else {
			s.F[w] = s.F[w][:n]
		}
	}
	if cap(s.dirty) < n {
		s.dirty = make([]bool, n)
	} else {
		s.dirty = s.dirty[:n]
		for i := range s.dirty {
			s.dirty[i] = false
		}
	}
	// Tile boundaries: cut at capacity and whenever the anchor octant
	// changes, so a tile never spans two coarse parents.
	s.starts = s.starts[:0]
	s.starts = append(s.starts, 0)
	if n > 0 {
		anchor := anchorOf(codes[0])
		fill := 1
		for i := 1; i < n; i++ {
			a := anchorOf(codes[i])
			if fill >= Size || a != anchor {
				s.starts = append(s.starts, int32(i))
				anchor, fill = a, 1
				continue
			}
			fill++
		}
		s.starts = append(s.starts, int32(n))
	}
	s.stamped = false
}

// N returns the cell count.
func (s *Store) N() int { return len(s.codes) }

// Tiles returns the tile count.
func (s *Store) Tiles() int {
	if len(s.starts) == 0 {
		return 0
	}
	return len(s.starts) - 1
}

// Codes returns the Z-order spine. Read-only; aligned with F.
func (s *Store) Codes() []morton.Code { return s.codes }

// TileBounds returns the half-open cell range of tile t.
func (s *Store) TileBounds(t int) (lo, hi int) {
	return int(s.starts[t]), int(s.starts[t+1])
}

// Load returns all field words of cell i.
func (s *Store) Load(i int) (vals [Words]float64) {
	for w := 0; w < Words; w++ {
		vals[w] = s.F[w][i]
	}
	return
}

// Set stores all field words of cell i without marking it dirty (gather).
func (s *Store) Set(i int, vals [Words]float64) {
	for w := 0; w < Words; w++ {
		s.F[w][i] = vals[w]
	}
}

// MarkDirty records that cell i's fields were modified in place.
func (s *Store) MarkDirty(i int) { s.dirty[i] = true }

// Dirty reports whether cell i is marked.
func (s *Store) Dirty(i int) bool { return s.dirty[i] }

// DirtyCount returns the number of marked cells.
func (s *Store) DirtyCount() int {
	n := 0
	for _, d := range s.dirty {
		if d {
			n++
		}
	}
	return n
}

// ForEachDirty invokes fn for every marked cell in ascending Z-order.
func (s *Store) ForEachDirty(fn func(i int)) {
	for i, d := range s.dirty {
		if d {
			fn(i)
		}
	}
}

// ClearDirty unmarks every cell.
func (s *Store) ClearDirty() {
	for i := range s.dirty {
		s.dirty[i] = false
	}
}

// Stamp records the owner's content sequence number the store was
// gathered (or scattered back) at.
func (s *Store) Stamp(seq uint64) { s.seq, s.stamped = seq, true }

// ValidFor reports whether the store still mirrors the owner at seq.
func (s *Store) ValidFor(seq uint64) bool { return s.stamped && s.seq == seq }

// Occupancy returns the mean tile fill fraction (cells / (tiles x Size)).
// Uniformly refined regions pack full tiles; coarse far-field leaves sit
// alone in theirs, so low occupancy means the mesh is paying layout
// overhead for adaptivity, not that cells are missing.
func (s *Store) Occupancy() float64 {
	t := s.Tiles()
	if t == 0 {
		return 0
	}
	return float64(s.N()) / float64(t*Size)
}

// OccupancyHistogram counts tiles by fill: hist[k] is the number of tiles
// holding exactly k cells (k in 1..Size; hist[0] is always 0 for a
// non-empty store).
func (s *Store) OccupancyHistogram() [Size + 1]int {
	var hist [Size + 1]int
	for t := 0; t < s.Tiles(); t++ {
		lo, hi := s.TileBounds(t)
		hist[hi-lo]++
	}
	return hist
}

// RunTileRanges schedules the tiles over the pool in coarse tile-aligned
// chunks: fn receives half-open TILE index ranges whose cells it sweeps
// via TileBounds (or the starts the bounds come from). Ranges covering
// fewer than minCells cells run inline, mirroring Pool.RunMin's serial
// cutoff. Chunk boundaries are tile boundaries, so every chunk sweeps
// whole cache-line-contiguous field runs and two chunks never share a
// tile — the scheduling granularity the SoA layout exists for.
func (s *Store) RunTileRanges(p *parallel.Pool, minCells int, fn func(tileLo, tileHi int)) {
	nt := s.Tiles()
	if nt == 0 {
		return
	}
	minTiles := (minCells + Size - 1) / Size
	p.RunMin(nt, minTiles, fn)
}
