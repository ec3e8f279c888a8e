package solver

import "pmoctree/internal/morton"

// axisOf maps a direction index to its axis (0=x, 1=y, 2=z) and sign.
func axisOf(di int) (axis int, sign float64) {
	axis = di / 2
	if di%2 == 0 {
		sign = 1
	} else {
		sign = -1
	}
	return
}

// Divergence computes the cell-centered discrete divergence of the
// velocity field (u, v, w), per unit volume:
//
//	div_i = (1/V_i) * sum_f A_f * (n_f . u_f)
//
// with face velocity taken as the average of the two adjacent cells and
// zero at walls (no-penetration boundaries).
func (s *System) Divergence(u, v, w []float64, out []float64) {
	comp := [3][]float64{u, v, w}
	rs, nb := s.rowStart, s.nb
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for k := rs[i]; k < rs[i+1]; k++ {
				axis, sign := axisOf(int(s.fdir[k]))
				uf := 0.5 * (comp[axis][i] + comp[axis][nb[k]])
				acc += sign * s.farea[k] * uf
			}
			out[i] = acc / s.vol[i]
		}
	})
}

// Gradient computes a cell-centered estimate of grad(p) using
// transmissibility-weighted face differences (walls contribute nothing:
// homogeneous Neumann for the projection gradient).
func (s *System) Gradient(p []float64, gx, gy, gz []float64) {
	out := [3][]float64{gx, gy, gz}
	rs, nb := s.rowStart, s.nb
	// The accumulators live inside the chunk body: hoisting them to
	// function scope (as an earlier revision did) would be a data race
	// once the sweep runs on the pool.
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		var wsum [3]float64
		var acc [3]float64
		for i := lo; i < hi; i++ {
			h := s.extent[i]
			for a := 0; a < 3; a++ {
				wsum[a], acc[a] = 0, 0
			}
			for k := rs[i]; k < rs[i+1]; k++ {
				j := nb[k]
				axis, sign := axisOf(int(s.fdir[k]))
				d := (h + s.extent[j]) / 2
				acc[axis] += s.farea[k] * sign * (p[j] - p[i]) / d
				wsum[axis] += s.farea[k]
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

// ApplyNeumann computes y = A_N x, the Neumann (wall-flux-free) variant
// of the operator: wall faces contribute nothing, so constants span the
// null space. This is the projection operator of incompressible flow with
// no-penetration walls.
func (s *System) ApplyNeumann(x, y []float64) {
	rs, nb, tr := s.rowStart, s.nb, s.tr
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := rs[i], rs[i+1]
			row, t := nb[a:b], tr[a:b]
			xi := x[i]
			acc := 0.0
			for k, j := range row {
				acc += t[k] * (xi - x[j])
			}
			y[i] = acc
		}
	})
}

// SolveNeumann runs the same V-cycle-preconditioned CG on the (singular,
// semidefinite) Neumann operator: A_N x = b*V. The right-hand side must be
// compatible (sum to zero), which wall-bounded divergence fields satisfy
// by the divergence theorem; the returned solution is volume-mean-free.
func (s *System) SolveNeumann(b []float64, x []float64, opt Options) (Result, error) {
	return s.solve(b, x, func(rhs []float64) Result { return s.solveNeumann(rhs, x, opt) })
}

// solveNeumann is SolveNeumann on the integrated right-hand side, which it
// makes compatible in place.
func (s *System) solveNeumann(rhs, x []float64, opt Options) Result {
	n := s.N()
	rhsSum := s.pool.Sum(n, func(i int) float64 { return rhs[i] })
	volSum := s.pool.Sum(n, func(i int) float64 { return s.vol[i] })
	// Enforce compatibility exactly: remove the (tiny) incompatible
	// component that floating point left behind.
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rhs[i] -= rhsSum * s.vol[i] / volSum
		}
	})
	res := s.pcg(true, rhs, x, opt)
	// Pin the solution: remove the volume-weighted mean.
	xm := s.pool.Sum(n, func(i int) float64 { return x[i] * s.vol[i] }) / volSum
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] -= xm
		}
	})
	return res
}

// ProjectedDivergence computes the divergence of the face-corrected
// velocity field: face-normal velocities avg(u_i, u_j) minus the pressure
// flux dt (p_j - p_i)/d on interior faces (walls stay impermeable). With
// p from SolveNeumann(-div/dt) this is zero to solver tolerance — the
// exact discrete projection.
func (s *System) ProjectedDivergence(u, v, w, p []float64, dt float64, out []float64) {
	comp := [3][]float64{u, v, w}
	rs, nb := s.rowStart, s.nb
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for k := rs[i]; k < rs[i+1]; k++ {
				j := nb[k]
				axis, sign := axisOf(int(s.fdir[k]))
				uf := 0.5 * (comp[axis][i] + comp[axis][j])
				// Outward-normal correction: u_out -= dt (p_j - p_i)/d,
				// i.e. flux -= dt * T * (p_j - p_i).
				acc += sign*s.farea[k]*uf - dt*s.tr[k]*(p[j]-p[i])
			}
			out[i] = acc / s.vol[i]
		}
	})
}

// CellAt returns the index of the cell containing the point (x, y, z) in
// the unit cube, or false when the point is outside.
func (s *System) CellAt(x, y, z float64) (int, bool) {
	cell, ok := morton.CellOf(x, y, z)
	if !ok {
		return 0, false
	}
	return morton.Container(s.codes, cell)
}

// CellNear is CellAt for a point expected in or near cell i, such as a
// point traced back from cell i or a stencil point of it: it tests i
// itself, then searches the cells around i.
func (s *System) CellNear(i int, x, y, z float64) (int, bool) {
	cell, ok := morton.CellOf(x, y, z)
	if !ok {
		return 0, false
	}
	if uint(i) < uint(len(s.codes)) && s.codes[i].Contains(cell) {
		return i, true
	}
	return morton.ContainerNear(s.codes, cell, i)
}

// Extent returns cell i's edge length.
func (s *System) Extent(i int) float64 { return s.codes[i].Extent() }

// Center returns cell i's center.
func (s *System) Center(i int) (float64, float64, float64) { return s.codes[i].Center() }
