package solver

import (
	"math"
	"sync/atomic"
)

// StencilCell returns the cell holding the centre of cell i's same-size
// neighbour at offset (dx, dy, dz), each in {-1, 0, 1}, after clamping that
// centre into the unit cube: the cell CellNear(i, ...) returns for it. These
// are the corners of a trilinear stencil around a point in cell i; offset 0
// is i itself.
//
// The answer depends only on the mesh, which a System never changes, so
// each one is searched once and kept in a table of 26 entries per cell,
// allocated on the first call. Entries are positions into Codes, not keys,
// so the table is no second key index. It is safe for concurrent use: two
// callers that fill the same entry store the same answer.
func (s *System) StencilCell(i, dx, dy, dz int) int {
	k := (dz+1)*9 + (dy+1)*3 + dx + 1
	if k == 13 {
		return i
	}
	if k > 13 {
		k--
	}
	s.stencilOnce.Do(func() { s.stencil = make([]atomic.Int32, 26*len(s.codes)) })
	if j := s.stencil[26*i+k].Load(); j != 0 {
		return int(j - 1)
	}
	return s.fillStencil(26*i+k, i, dx, dy, dz)
}

// fillStencil searches for StencilCell's answer and stores it in entry e.
func (s *System) fillStencil(e, i, dx, dy, dz int) int {
	x, y, z, _ := s.codes[i].Decode()
	h := s.extent[i]
	at := func(c uint32, d int) float64 { return clamp01((float64(int(c)+d) + 0.5) * h) }
	// Clamped centres lie in the domain, which the cells tile.
	j, _ := s.CellNear(i, at(x, dx), at(y, dy), at(z, dz))
	s.stencil[e].Store(int32(j + 1))
	return j
}

// clamp01 moves v into [0, 1), the half-open domain CellOf accepts.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}
