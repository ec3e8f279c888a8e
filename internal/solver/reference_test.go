package solver

import (
	"fmt"
	"math"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// The pre-CSR solver, kept as the test oracle the production System is
// pinned to: assembly through a code→index map, an ancestor walk for
// coarser neighbors and exact child probes for finer ones into per-cell
// AoS face lists; the operator sweeps over those lists with geometry
// recomputed from the codes; the map-probe point lookup; and the
// Jacobi-preconditioned CG loops driving the AoS sweeps. The assembly and
// the operators match the CSR forms term for term, so the two round
// identically; the V-cycle-preconditioned solves must land within their
// tolerance of these CG loops.

// face is one flux connection of a cell.
type face struct {
	neighbor int     // index of the adjacent cell, -1 for a wall
	t        float64 // transmissibility A/d
	dir      int     // direction index into dirs (axis + orientation)
	area     float64 // face area
}

// refSystem is the AoS operator.
type refSystem struct {
	codes []morton.Code
	index map[morton.Code]int
	faces [][]face
	diag  []float64
	pool  *parallel.Pool // always nil: the sweeps run inline
}

func referenceBuild(leaves []morton.Code) (*refSystem, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("solver: no cells")
	}
	s := &refSystem{
		codes: append([]morton.Code(nil), leaves...),
		index: make(map[morton.Code]int, len(leaves)),
		faces: make([][]face, len(leaves)),
		diag:  make([]float64, len(leaves)),
	}
	vol := 0.0
	for i, c := range s.codes {
		if _, dup := s.index[c]; dup {
			return nil, fmt.Errorf("solver: duplicate cell %v", c)
		}
		s.index[c] = i
		e := c.Extent()
		vol += e * e * e
	}
	if math.Abs(vol-1) > 1e-9 {
		return nil, fmt.Errorf("solver: cells cover volume %v, want 1 (not a tiling)", vol)
	}

	for i, c := range s.codes {
		h := c.Extent()
		l := c.Level()
		for di, d := range dirs {
			n, ok := c.Neighbor(d[0], d[1], d[2])
			if !ok {
				// Domain wall: Dirichlet ghost at distance h/2.
				t := h * h / (h / 2)
				s.faces[i] = append(s.faces[i], face{neighbor: -1, t: t, dir: di, area: h * h})
				s.diag[i] += t
				continue
			}
			if j, ok := s.index[n]; ok {
				// Matched neighbor.
				t := h * h / h
				s.faces[i] = append(s.faces[i], face{neighbor: j, t: t, dir: di, area: h * h})
				s.diag[i] += t
				continue
			}
			// Coarser neighbor: an ancestor of n holds the cell.
			if j, lj, ok := s.findCoarser(n, l); ok {
				hj := 1.0 / float64(uint64(1)<<lj)
				t := h * h / ((h + hj) / 2)
				s.faces[i] = append(s.faces[i], face{neighbor: j, t: t, dir: di, area: h * h})
				s.diag[i] += t
				continue
			}
			// Finer neighbors: the 4 children of n touching this face.
			kids, err := s.fineFaceNeighbors(c, n, d)
			if err != nil {
				return nil, err
			}
			for _, j := range kids {
				hj := s.codes[j].Extent()
				t := hj * hj / ((h + hj) / 2)
				s.faces[i] = append(s.faces[i], face{neighbor: j, t: t, dir: di, area: hj * hj})
				s.diag[i] += t
			}
		}
	}
	return s, nil
}

// flatten transposes the AoS face lists into the CSR arrays and
// precomputes per-cell geometry, returning the System the old two-pass
// Build produced.
func (s *refSystem) flatten() *System {
	out := &System{codes: s.codes, diag: s.diag}
	n := len(s.codes)
	total := 0
	for i := range s.faces {
		total += len(s.faces[i])
	}
	out.rowStart = make([]int32, n+1)
	out.nb = make([]int32, 0, total)
	out.tr = make([]float64, 0, total)
	out.fdir = make([]uint8, 0, total)
	out.farea = make([]float64, 0, total)
	out.extent = make([]float64, n)
	out.vol = make([]float64, n)
	for i, fl := range s.faces {
		out.rowStart[i] = int32(len(out.nb))
		for _, f := range fl {
			out.nb = append(out.nb, int32(f.neighbor))
			out.tr = append(out.tr, f.t)
			out.fdir = append(out.fdir, uint8(f.dir))
			out.farea = append(out.farea, f.area)
		}
		e := s.codes[i].Extent()
		out.extent[i] = e
		out.vol[i] = e * e * e
	}
	out.rowStart[n] = int32(len(out.nb))
	out.ndiag = make([]float64, n)
	s.neumannDiag(out.ndiag)
	return out
}

// findCoarser walks up the ancestors of n looking for an existing cell.
func (s *refSystem) findCoarser(n morton.Code, below uint8) (int, uint8, bool) {
	for l := int(below) - 1; l >= 0; l-- {
		anc := n.AncestorAt(uint8(l))
		if j, ok := s.index[anc]; ok {
			return j, uint8(l), true
		}
	}
	return 0, 0, false
}

// fineFaceNeighbors returns the children of n on the face adjacent to c.
// Under 2:1 balance they must exist as cells.
func (s *refSystem) fineFaceNeighbors(c, n morton.Code, d [3]int) ([]int, error) {
	if n.Level() >= morton.MaxLevel {
		return nil, fmt.Errorf("solver: missing neighbor of %v at max level", c)
	}
	var out []int
	for k := 0; k < 8; k++ {
		// The child faces c when its bit along the direction axis is on
		// the side facing BACK toward c. Moving +x from c means the
		// neighbor's near children have x-bit 0; moving -x, x-bit 1.
		xb, yb, zb := k&1, (k>>1)&1, (k>>2)&1
		if d[0] == 1 && xb != 0 || d[0] == -1 && xb != 1 {
			continue
		}
		if d[1] == 1 && yb != 0 || d[1] == -1 && yb != 1 {
			continue
		}
		if d[2] == 1 && zb != 0 || d[2] == -1 && zb != 1 {
			continue
		}
		child := n.Child(k)
		j, ok := s.index[child]
		if !ok {
			return nil, fmt.Errorf("solver: mesh not 2:1 balanced at %v (missing %v)", c, child)
		}
		out = append(out, j)
	}
	return out, nil
}

func (s *refSystem) apply(x, y []float64) {
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.diag[i] * x[i]
			for _, f := range s.faces[i] {
				if f.neighbor >= 0 {
					acc -= f.t * x[f.neighbor]
				}
			}
			y[i] = acc
		}
	})
}

func (s *refSystem) applyNeumann(x, y []float64) {
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for _, f := range s.faces[i] {
				if f.neighbor < 0 {
					continue
				}
				acc += f.t * (x[i] - x[f.neighbor])
			}
			y[i] = acc
		}
	})
}

func (s *refSystem) divergence(u, v, w []float64, out []float64) {
	comp := [3][]float64{u, v, w}
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.codes[i].Extent()
			vol := e * e * e
			acc := 0.0
			for _, f := range s.faces[i] {
				axis, sign := axisOf(f.dir)
				var uf float64
				if f.neighbor >= 0 {
					uf = 0.5 * (comp[axis][i] + comp[axis][f.neighbor])
				} else {
					uf = 0 // wall: no flow through
				}
				acc += sign * f.area * uf
			}
			out[i] = acc / vol
		}
	})
}

func (s *refSystem) gradient(p []float64, gx, gy, gz []float64) {
	out := [3][]float64{gx, gy, gz}
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		var wsum [3]float64
		var acc [3]float64
		for i := lo; i < hi; i++ {
			h := s.codes[i].Extent()
			for a := 0; a < 3; a++ {
				wsum[a], acc[a] = 0, 0
			}
			for _, f := range s.faces[i] {
				if f.neighbor < 0 {
					continue
				}
				axis, sign := axisOf(f.dir)
				hj := s.codes[f.neighbor].Extent()
				d := (h + hj) / 2
				acc[axis] += f.area * sign * (p[f.neighbor] - p[i]) / d
				wsum[axis] += f.area
			}
			for a := 0; a < 3; a++ {
				if wsum[a] > 0 {
					out[a][i] = acc[a] / wsum[a]
				} else {
					out[a][i] = 0
				}
			}
		}
	})
}

func (s *refSystem) projectedDivergence(u, v, w, p []float64, dt float64, out []float64) {
	comp := [3][]float64{u, v, w}
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.codes[i].Extent()
			vol := e * e * e
			acc := 0.0
			for _, f := range s.faces[i] {
				if f.neighbor < 0 {
					continue
				}
				axis, sign := axisOf(f.dir)
				uf := 0.5 * (comp[axis][i] + comp[axis][f.neighbor])
				acc += sign*f.area*uf - dt*f.t*(p[f.neighbor]-p[i])
			}
			out[i] = acc / vol
		}
	})
}

func (s *refSystem) neumannDiag(diag []float64) {
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, f := range s.faces[i] {
				if f.neighbor >= 0 {
					diag[i] += f.t
				}
			}
			if diag[i] == 0 {
				diag[i] = 1 // isolated cell (single-cell mesh)
			}
		}
	})
}

// cellAt is the pre-CSR point lookup: an exact-match map probe at the
// finest level followed by an ancestor walk.
func (s *refSystem) cellAt(x, y, z float64) (int, bool) {
	if x < 0 || x >= 1 || y < 0 || y >= 1 || z < 0 || z >= 1 {
		return 0, false
	}
	grid := float64(uint64(1) << morton.MaxLevel)
	code := morton.Encode(uint32(x*grid), uint32(y*grid), uint32(z*grid), morton.MaxLevel)
	if j, ok := s.index[code]; ok {
		return j, true
	}
	if j, _, ok := s.findCoarser(code, morton.MaxLevel); ok {
		return j, true
	}
	return 0, false
}

// solve is Jacobi-preconditioned CG on A x = b·V over the AoS sweeps.
func (s *refSystem) solve(b []float64, x []float64, opt Options) Result {
	n := len(s.codes)
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	rhs := make([]float64, n)
	for i := range rhs {
		e := s.codes[i].Extent()
		rhs[i] = b[i] * e * e * e
	}
	r := make([]float64, n)
	s.apply(x, r)
	for i := range r {
		r[i] = rhs[i] - r[i]
	}
	z := make([]float64, n)
	precond := func() {
		for i := range z {
			z[i] = r[i] / s.diag[i]
		}
	}
	precond()
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := s.pool.Dot(r, z)
	norm0 := s.pool.Norm2(rhs)
	if norm0 == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}
	}
	var res Result
	for res.Iterations = 0; res.Iterations < opt.MaxIter; res.Iterations++ {
		res.Residual = s.pool.Norm2(r) / norm0
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res
		}
		s.apply(p, ap)
		alpha := rz / s.pool.Dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		precond()
		rzNew := s.pool.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Residual = s.pool.Norm2(r) / norm0
	res.Converged = res.Residual <= opt.Tol
	return res
}

// solveNeumann is Jacobi-preconditioned CG on the Neumann operator over
// the AoS sweeps, with SolveNeumann's compatibility and mean handling.
func (s *refSystem) solveNeumann(b []float64, x []float64, opt Options) Result {
	n := len(s.codes)
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	volOf := func(i int) float64 {
		e := s.codes[i].Extent()
		return e * e * e
	}
	rhs := make([]float64, n)
	for i := range rhs {
		e := s.codes[i].Extent()
		rhs[i] = b[i] * e * e * e
	}
	rhsSum := s.pool.Sum(n, func(i int) float64 { return rhs[i] })
	volSum := s.pool.Sum(n, volOf)
	for i := range rhs {
		e := s.codes[i].Extent()
		rhs[i] -= rhsSum * (e * e * e) / volSum
	}
	diag := make([]float64, n)
	s.neumannDiag(diag)

	r := make([]float64, n)
	s.applyNeumann(x, r)
	for i := range r {
		r[i] = rhs[i] - r[i]
	}
	z := make([]float64, n)
	for i := range z {
		z[i] = r[i] / diag[i]
	}
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := s.pool.Dot(r, z)
	norm0 := s.pool.Norm2(rhs)
	if norm0 == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}
	}
	var res Result
	for res.Iterations = 0; res.Iterations < opt.MaxIter; res.Iterations++ {
		res.Residual = s.pool.Norm2(r) / norm0
		if res.Residual <= opt.Tol {
			res.Converged = true
			break
		}
		s.applyNeumann(p, ap)
		pap := s.pool.Dot(p, ap)
		if pap <= 0 {
			break
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		for i := range z {
			z[i] = r[i] / diag[i]
		}
		rzNew := s.pool.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	xm := s.pool.Sum(n, func(i int) float64 {
		e := s.codes[i].Extent()
		return x[i] * e * e * e
	}) / volSum
	for i := range x {
		x[i] -= xm
	}
	res.Converged = res.Converged || res.Residual <= opt.Tol
	return res
}
