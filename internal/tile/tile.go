// Package tile implements the Z-order leaf index: a flat, Morton-sorted
// array of leaf codes with their payload stored as SoA field slices. Octree
// codes that run at hardware speed treat exactly this array as the primary
// structure (Cornerstone) and flatten quadrants into Morton-indexed SoA
// arrays (the p4est representation); the CUDA AMR exemplar in SNIPPETS.md
// stores fixed-size tiles per octree node. A Store is that layout for
// PM-octree: each field word is one contiguous float64 slice, and the cells
// are partitioned into fixed-capacity tiles that never span a
// coarse-ancestor boundary — the scheduling and reporting granule.
//
// The store is the index itself, not a gathered image of one: core.Tree
// keeps one as its working-version index, edits it in step with the tree
// (append, truncate, in-place refinement and coarsening), lends it to
// kernels through core.LeafTiles and stores their marked cells with
// core.ScatterLeafTiles; serve builds one per pinned version and answers
// queries with morton.Container over Codes and with BoxRuns. The Store
// does not know about the octree: the owner stamps it with its content
// sequence number (Stamp/ValidFor).
//
// Tile bounds and dirty flags are derived state, allocated on first use:
// a store that is only searched (serve's) holds codes and payload alone.
// Kernels sweep F[w][lo:hi] ranges handed out by RunTileRanges in
// cache-line-contiguous, tile-aligned chunks.
package tile

import (
	"slices"

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

// Store is a Z-ordered leaf set with its payload.
//
// The zero value is an empty store. A Store is safe for concurrent READ
// access and for concurrent writes to DISTINCT cells (the dirty flags are
// one byte per cell, so neighboring cells in different pool chunks never
// share a write target); every edit of the leaf set is single-threaded.
type Store struct {
	codes []morton.Code
	// F holds the field values: F[w][i] is word w of cell i, in the same
	// Z-order as codes. Kernels index the slices directly.
	F [Words][]float64

	// starts are the tile boundaries: tile t covers cells
	// [starts[t], starts[t+1]). len(starts) = Tiles()+1. They are cut over
	// the first cut codes; cut is -1 once an edit replaced one of those.
	starts []int32
	cut    int

	// dirty[i] marks cell i as modified in place. One byte per cell so
	// parallel sweeps on disjoint ranges never write the same word (a
	// packed bitset would race across tile boundaries). Sized by ClearDirty.
	dirty []bool

	seq     uint64
	stamped bool
}

// N returns the cell count.
func (s *Store) N() int { return len(s.codes) }

// Codes returns the Z-order spine. Read-only; aligned with F.
func (s *Store) Codes() []morton.Code { return s.codes }

// Load returns all field words of cell i.
func (s *Store) Load(i int) (vals [Words]float64) {
	for w := 0; w < Words; w++ {
		vals[w] = s.F[w][i]
	}
	return
}

// Set stores all field words of cell i without marking it dirty.
func (s *Store) Set(i int, vals [Words]float64) {
	for w := 0; w < Words; w++ {
		s.F[w][i] = vals[w]
	}
}

// Append adds one leaf after the last. Re-appending the code a position
// already held (a walk re-deriving an unchanged leaf set after Truncate)
// keeps the tile bounds.
func (s *Store) Append(code morton.Code, vals [Words]float64) {
	if n := len(s.codes); n < s.cut && s.codes[:s.cut][n] != code {
		s.cut = -1
	}
	s.codes = append(s.codes, code)
	for w := 0; w < Words; w++ {
		s.F[w] = append(s.F[w], vals[w])
	}
}

// Truncate keeps the first n leaves.
func (s *Store) Truncate(n int) {
	s.codes = s.codes[:n]
	for w := 0; w < Words; w++ {
		s.F[w] = s.F[w][:n]
	}
}

// Grow makes room for n more leaves without reallocating.
func (s *Store) Grow(n int) {
	s.codes = slices.Grow(s.codes, n)
	for w := 0; w < Words; w++ {
		s.F[w] = slices.Grow(s.F[w], n)
	}
}

// Refine replaces the leaves by leaves, a sorted refinement of them
// (every code equal to or a descendant of a current leaf): each new leaf
// takes the payload of the leaf covering it, the way a split copies payload
// down to its children. The expansion runs back to front in place: new
// position j is covered by an old position at or before j, which nothing
// has overwritten yet, so no second copy of the index is ever alive.
func (s *Store) Refine(leaves []morton.Code) {
	n := len(leaves)
	i := len(s.codes) - 1
	s.Grow(n - len(s.codes))
	s.codes = s.codes[:n]
	for w := 0; w < Words; w++ {
		s.F[w] = s.F[w][:n]
	}
	for j := n - 1; j >= 0; j-- {
		i = min(i, j)
		for s.codes[i] > leaves[j] {
			i--
		}
		s.codes[j] = leaves[j]
		for w := 0; w < Words; w++ {
			s.F[w][j] = s.F[w][i]
		}
	}
	s.cut = -1
}

// Coarsen merges complete sibling groups, the inverse of Refine. One
// forward pass compacts the leaves in place; whenever the last eight kept
// leaves are the eight children of a parent p it asks merge(p) — in
// post-order, so a merged p may complete its own parent's group and the
// merges cascade. A merged group becomes the one leaf p, whose payload is
// the sum of its children's in child order divided by 8. Returns the
// number of merges.
func (s *Store) Coarsen(merge func(p morton.Code) bool) int {
	n, w := 0, 0
	for i, c := range s.codes {
		s.codes[w] = c
		for k := 0; k < Words; k++ {
			s.F[k][w] = s.F[k][i]
		}
		w++
		for w >= 8 && c.Level() > 0 && c.ChildIndex() == 7 {
			p := c.Parent()
			if s.codes[w-8] != p.Child(0) || !merge(p) {
				break
			}
			w -= 8
			for k := 0; k < Words; k++ {
				sum := 0.0
				for _, v := range s.F[k][w : w+8] {
					sum += v
				}
				s.F[k][w] = sum / 8
			}
			s.codes[w] = p
			w++
			n++
			c = p
		}
	}
	s.Truncate(w)
	if n > 0 {
		s.cut = -1
	}
	return n
}

// BoxRuns calls fn, in ascending position order, with the runs [first,
// last] of the leaves that overlap the box of MaxLevel cells lo..hi
// (inclusive on each axis) and whose keys lie in [klo, khi]. It descends
// from the box's cover octant in Z-order and skips every octant disjoint
// from the box or whose key span misses the filter; an octant inside both
// yields its whole leaf window as one run, found by morton.Window inside
// its parent's window. A leaf anchored at cell a with side s overlaps the
// box iff a <= hi and a+s-1 >= lo on every axis: leaf faces are dyadic, so
// this integer rule is the exact half-open float test.
//
// It returns the interior octants a top-down tree descent reads to reach
// the runs: the path from the root to the cover (to the parent of the one
// leaf holding the whole box, if there is such a leaf), plus every
// partially overlapping octant below the cover it descends into. The
// leaves of the runs are not counted.
func (s *Store) BoxRuns(lo, hi [3]uint32, klo, khi uint64, fn func(first, last int)) (reads int) {
	cover := morton.Cover(lo, hi)
	if i, ok := morton.Container(s.codes, cover); ok {
		if k := uint64(s.codes[i]); k >= klo && k <= khi {
			fn(i, i)
		}
		return int(s.codes[i].Level())
	}
	w := boxWalk{codes: s.codes, lo: lo, hi: hi, klo: klo, khi: khi, fn: fn}
	shift := morton.MaxLevel - cover.Level()
	anchor := [3]uint32{lo[0] >> shift << shift, lo[1] >> shift << shift, lo[2] >> shift << shift}
	return int(cover.Level()) + max(1, w.visit(cover, anchor, 0, len(s.codes)-1))
}

// boxWalk is one BoxRuns descent.
type boxWalk struct {
	codes    []morton.Code
	lo, hi   [3]uint32
	klo, khi uint64
	fn       func(first, last int)
}

// visit yields the runs under octant c, anchored at MaxLevel cell a, whose
// leaves lie among positions [first, last], and returns the octants it
// descended into, c included.
func (w *boxWalk) visit(c morton.Code, a [3]uint32, first, last int) int {
	end := uint32(1)<<(morton.MaxLevel-c.Level()) - 1 // side - 1
	inside := true
	for d := 0; d < 3; d++ {
		if a[d] > w.hi[d] || a[d]+end < w.lo[d] {
			return 0
		}
		inside = inside && a[d] >= w.lo[d] && a[d]+end <= w.hi[d]
	}
	clo, chi := c.KeySpan()
	if chi < w.klo || clo > w.khi {
		return 0
	}
	sub := w.codes[first : last+1]
	if inside {
		if i, j := morton.Window(sub, max(clo, w.klo), min(chi, w.khi)); i <= j {
			w.fn(first+i, first+j)
		}
		return 0
	}
	i, j := morton.Window(sub, clo, chi)
	if i > j {
		return 0
	}
	i, j = first+i, first+j
	if i == j && w.codes[i] == c {
		if clo >= w.klo && clo <= w.khi {
			w.fn(i, i)
		}
		return 0
	}
	n := 1
	half := (end + 1) / 2
	for k := 0; k < 8; k++ {
		ca := [3]uint32{a[0] + uint32(k&1)*half, a[1] + uint32(k>>1&1)*half, a[2] + uint32(k>>2)*half}
		n += w.visit(c.Child(k), ca, i, j)
	}
	return n
}

// Tiled reports whether the tile bounds are cut over the current leaves.
func (s *Store) Tiled() bool { return s.cut == len(s.codes) }

// Retile cuts the tile bounds over the current leaves unless they already
// are: at capacity and whenever the anchor octant changes, so a tile never
// spans two coarse parents.
func (s *Store) Retile() {
	if s.Tiled() {
		return
	}
	n := len(s.codes)
	s.starts = append(s.starts[:0], 0)
	if n > 0 {
		anchor := anchorOf(s.codes[0])
		fill := 1
		for i := 1; i < n; i++ {
			a := anchorOf(s.codes[i])
			if fill >= Size || a != anchor {
				s.starts = append(s.starts, int32(i))
				anchor, fill = a, 1
				continue
			}
			fill++
		}
		s.starts = append(s.starts, int32(n))
	}
	s.cut = n
}

// Tiles returns the tile count. The bounds are those of the last Retile.
func (s *Store) Tiles() int {
	if len(s.starts) == 0 {
		return 0
	}
	return len(s.starts) - 1
}

// TileBounds returns the half-open cell range of tile t.
func (s *Store) TileBounds(t int) (lo, hi int) {
	return int(s.starts[t]), int(s.starts[t+1])
}

// MarkDirty records that cell i's fields were modified in place. The flags
// cover the cells present at the last ClearDirty.
func (s *Store) MarkDirty(i int) { s.dirty[i] = true }

// HasDirty reports whether any cell is marked.
func (s *Store) HasDirty() bool { return slices.Contains(s.dirty, true) }

// ForEachDirty invokes fn for every marked cell in ascending Z-order.
func (s *Store) ForEachDirty(fn func(i int)) {
	for i, d := range s.dirty {
		if d {
			fn(i)
		}
	}
}

// ClearDirty unmarks every cell, sizing the flags to the cell count.
func (s *Store) ClearDirty() {
	s.dirty = slices.Grow(s.dirty[:0], len(s.codes))[:len(s.codes)]
	clear(s.dirty)
}

// Stamp records the owner's content sequence number the store mirrors.
func (s *Store) Stamp(seq uint64) { s.seq, s.stamped = seq, true }

// Invalidate drops the stamp: the store mirrors nothing until the next.
func (s *Store) Invalidate() { s.stamped = false }

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
