package solver

import (
	"fmt"

	"pmoctree/internal/morton"
)

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
				var uf float64
				if j := nb[k]; j >= 0 {
					uf = 0.5 * (comp[axis][i] + comp[axis][j])
				} else {
					uf = 0 // wall: no flow through
				}
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
				if j < 0 {
					continue
				}
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
			acc := 0.0
			for k := rs[i]; k < rs[i+1]; k++ {
				j := nb[k]
				if j < 0 {
					continue
				}
				acc += tr[k] * (x[i] - x[j])
			}
			y[i] = acc
		}
	})
}

// SolveNeumann runs CG on the (singular, semidefinite) Neumann operator:
// A_N x = b*V. The right-hand side must be compatible (sum to zero), which
// wall-bounded divergence fields satisfy by the divergence theorem; the
// returned solution is volume-mean-free.
func (s *System) SolveNeumann(b []float64, x []float64, opt Options) (Result, error) {
	n := s.N()
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("solver: vector length %d/%d, want %d", len(b), len(x), n)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	rhs := make([]float64, n)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.codes[i].Extent()
			rhs[i] = b[i] * e * e * e
		}
	})
	rhsSum := s.pool.Sum(n, func(i int) float64 { return rhs[i] })
	volSum := s.pool.Sum(n, func(i int) float64 {
		e := s.codes[i].Extent()
		return e * e * e
	})
	// Enforce compatibility exactly: remove the (tiny) incompatible
	// component that floating point left behind.
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.codes[i].Extent()
			rhs[i] -= rhsSum * (e * e * e) / volSum
		}
	})

	// Neumann diagonal (wall terms excluded) for the Jacobi preconditioner.
	diag := make([]float64, n)
	s.neumannDiag(diag)

	r := make([]float64, n)
	s.ApplyNeumann(x, r)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = rhs[i] - r[i]
		}
	})
	z := make([]float64, n)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z[i] = r[i] / diag[i]
		}
	})
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := s.pool.Dot(r, z)
	norm0 := s.pool.Norm2(rhs)
	if norm0 == 0 {
		// A zero right-hand side means the projection has nothing to do;
		// any constant solves the singular system and the mean-free
		// representative is x = 0. Returning the untouched initial guess
		// here (as an earlier revision did) would silently hand back an
		// unconverged x.
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}, nil
	}
	var res Result
	for res.Iterations = 0; res.Iterations < opt.MaxIter; res.Iterations++ {
		res.Residual = s.pool.Norm2(r) / norm0
		if res.Residual <= opt.Tol {
			res.Converged = true
			break
		}
		s.ApplyNeumann(p, ap)
		pap := s.pool.Dot(p, ap)
		if pap <= 0 {
			break // numerical null-space contamination
		}
		alpha := rz / pap
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
		})
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = r[i] / diag[i]
			}
		})
		rzNew := s.pool.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
	// Pin the solution: remove the volume-weighted mean.
	xm := s.pool.Sum(n, func(i int) float64 {
		e := s.codes[i].Extent()
		return x[i] * e * e * e
	}) / volSum
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] -= xm
		}
	})
	res.Converged = res.Converged || res.Residual <= opt.Tol
	return res, nil
}

// neumannDiag fills the wall-free (Neumann) diagonal used by
// SolveNeumann's Jacobi preconditioner.
func (s *System) neumannDiag(diag []float64) {
	rs, nb, tr := s.rowStart, s.nb, s.tr
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for k := rs[i]; k < rs[i+1]; k++ {
				if nb[k] >= 0 {
					diag[i] += tr[k]
				}
			}
			if diag[i] == 0 {
				diag[i] = 1 // isolated cell (single-cell mesh)
			}
		}
	})
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
				if j < 0 {
					continue
				}
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
// the unit cube, or false when the point is outside. The lookup is one
// binary search over the sorted left-aligned key index (the internal/serve
// leaf-lookup idiom).
func (s *System) CellAt(x, y, z float64) (int, bool) {
	if x < 0 || x >= 1 || y < 0 || y >= 1 || z < 0 || z >= 1 {
		return 0, false
	}
	grid := float64(uint64(1) << morton.MaxLevel)
	code := morton.Encode(uint32(x*grid), uint32(y*grid), uint32(z*grid), morton.MaxLevel)
	k := code.Key()
	i := s.search(k)
	if i < 0 {
		return 0, false
	}
	cand := int(s.perm[i])
	lo, hi := s.codes[cand].KeySpan()
	if k >= lo && k < hi {
		return cand, true
	}
	return 0, false
}

// Extent returns cell i's edge length.
func (s *System) Extent(i int) float64 { return s.codes[i].Extent() }

// Center returns cell i's center.
func (s *System) Center(i int) (float64, float64, float64) { return s.codes[i].Center() }
