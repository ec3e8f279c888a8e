package solver

import "pmoctree/internal/morton"

// The V-cycle that preconditions every solve. Its levels come from the
// fine mesh's own Z-ordered codes (Build): a coarser level caps every code
// one level above the finest present and drops the repeats, which leaves a
// 2:1-balanced tiling again. Z-order keeps the fine cells under one coarse
// cell contiguous, so restriction (a sum over the range, the transpose of
// injection) and prolongation (injection into the range) write disjoint
// outputs and stay bit-identical at every worker count. With equal
// damped-Jacobi smoothing before and after the coarse correction and a
// fixed sweep count at the bottom, the cycle is a fixed symmetric positive
// definite operator, as CG requires. The coarse correction is added
// unscaled: on BenchmarkSolveNeumann's projection, scaling it by 1.5 or 2
// takes 19 or 29 iterations instead of 12.
const (
	coarsest       = 64  // a level with at most this many cells is the bottom
	smoothSweeps   = 2   // damped-Jacobi sweeps before and after the correction
	coarsestSweeps = 20  // damped-Jacobi sweeps on the bottom level
	omega          = 0.8 // Jacobi damping
)

// coarsen caps every code at one level above the finest in codes and
// drops the repeats: coarse cell j holds codes[kids[j]:kids[j+1]].
func coarsen(codes []morton.Code) (coarse []morton.Code, kids []int32) {
	top, ntop := uint8(0), 0
	for _, c := range codes {
		switch l := c.Level(); {
		case l > top:
			top, ntop = l, 1
		case l == top:
			ntop++
		}
	}
	// Every eight finest cells become one.
	coarse = make([]morton.Code, 0, len(codes)-ntop/8*7)
	kids = make([]int32, 0, cap(coarse)+1)
	for i, c := range codes {
		c = c.AncestorAt(min(c.Level(), top-1))
		if k := len(coarse); k == 0 || coarse[k-1] != c {
			coarse = append(coarse, c)
			kids = append(kids, int32(i))
		}
	}
	return coarse, append(kids, int32(len(codes)))
}

// cycleWork is one level's scratch for a V-cycle: the restricted residual
// and its correction (unused on the finest level, where the CG vectors
// stand in) and an operator output.
type cycleWork struct{ r, z, t []float64 }

// workspace allocates the per-solve V-cycle scratch, finest level first,
// so that concurrent solves on one System share nothing mutable.
func (s *System) workspace() []cycleWork {
	work := []cycleWork{{t: make([]float64, s.N())}}
	for l := s.coarse; l != nil; l = l.coarse {
		n := l.N()
		work = append(work, cycleWork{make([]float64, n), make([]float64, n), make([]float64, n)})
	}
	return work
}

// vcycle sets z to one V-cycle's approximation of A⁻¹ r from a zero
// guess; work[0] is this level's scratch and work[1:] the coarser ones'.
func (s *System) vcycle(neumann bool, r, z []float64, work []cycleWork) {
	d := s.diag
	if neumann {
		d = s.ndiag
	}
	sweeps := smoothSweeps
	if s.coarse == nil {
		sweeps = coarsestSweeps
	}
	// The first sweep from zero is a scaled copy of r.
	s.pool.RunMin(len(z), minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z[i] = omega * r[i] / d[i]
		}
	})
	t := work[0].t
	s.smooth(neumann, d, r, z, t, sweeps-1)
	c := s.coarse
	if c == nil {
		return
	}
	s.apply(neumann, z, t)
	rc, zc := work[1].r, work[1].z
	s.pool.RunMin(c.N(), minStencil, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			acc := 0.0
			for i := s.kids[j]; i < s.kids[j+1]; i++ {
				acc += r[i] - t[i]
			}
			rc[j] = acc
		}
	})
	c.vcycle(neumann, rc, zc, work[1:])
	s.pool.RunMin(c.N(), minStencil, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for i := s.kids[j]; i < s.kids[j+1]; i++ {
				z[i] += zc[j]
			}
		}
	})
	s.smooth(neumann, d, r, z, t, smoothSweeps)
}

// smooth runs damped-Jacobi sweeps on A z = r, with t as scratch.
func (s *System) smooth(neumann bool, d, r, z, t []float64, sweeps int) {
	for ; sweeps > 0; sweeps-- {
		s.apply(neumann, z, t)
		s.pool.RunMin(len(z), minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] += omega * (r[i] - t[i]) / d[i]
			}
		})
	}
}
