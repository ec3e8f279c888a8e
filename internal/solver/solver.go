// Package solver implements a cell-centered finite-volume Poisson solver
// on 2:1-balanced adaptive octree meshes — the pressure-projection core a
// Gerris-style incompressible flow solver runs every time step (§4 of the
// paper). Two iterations are provided: geometric multigrid V-cycles on
// uniform hierarchies (Multigrid — the Gerris solver family, with
// iteration counts flat under refinement) and Jacobi-preconditioned
// conjugate gradients (System.Solve / SolveNeumann) for arbitrary
// 2:1-balanced adaptive meshes. Both sweep the same stencils, so the
// memory access pattern the octree observes is identical.
//
// The discretization is the standard graded-octree two-point flux: for
// the face between cells i and j,
//
//	F_ij = T_ij (x_i - x_j),   T_ij = A_f / d_ij
//
// where A_f is the (finer side's) face area and d_ij the center distance.
// Under the 2:1 constraint a face joins cells at most one level apart, so
// every face is either matched (1:1) or split (1:4), and assembling from
// both sides yields a symmetric positive-definite operator. Domain
// boundary faces carry homogeneous Dirichlet conditions through a ghost
// value at the wall.
package solver

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// Serial cutoffs for pool.RunMin (pr4: the PR 2 pool parallelized every
// sweep unconditionally, and on small meshes the spawn-and-join overhead
// made 4 workers slower than serial). Stencil sweeps (Apply, Divergence,
// Gradient, restriction) chase face lists and do tens of flops per cell;
// axpy-style vector updates do two or three, so they need a much larger
// range before goroutines pay off.
const (
	minStencil = 4096
	minAxpy    = 1 << 15
)

// System is the assembled Poisson operator on one mesh snapshot.
//
// The kernels sweep flat CSR face arrays (rowStart/nb/tr/...): one
// contiguous run of neighbor indices and coefficients per cell, so a sweep
// streams memory instead of chasing per-cell face lists (DESIGN.md
// decision 16). Cell i is input leaf i; a sorted key index beside the
// codes serves point location and Build's neighbor search.
//
// A System is safe for concurrent read-only use (Apply, Divergence, ...
// into caller-owned output vectors); the iterative solvers own their
// scratch state, so distinct Solve calls on distinct vectors may also run
// concurrently.
type System struct {
	codes []morton.Code
	diag  []float64 // sum of transmissibilities per cell

	// CSR face arrays: cell i's faces are entries
	// [rowStart[i], rowStart[i+1]) of nb/tr/fdir/farea, in dirs order, the
	// four halves of a split face in ascending child order. Every
	// accumulation over a row runs in that order.
	rowStart []int32
	nb       []int32   // adjacent cell index, -1 for a wall
	tr       []float64 // transmissibility A/d
	fdir     []uint8   // direction index into dirs
	farea    []float64 // face area

	// Per-cell geometry, precomputed once at build.
	extent []float64
	vol    []float64 // extent^3

	// Sorted point-location index: keys[k] = codes[perm[k]].Key(),
	// ascending. CellAt and Build binary-search it.
	keys []uint64
	perm []int32

	// pool schedules the matrix-free kernels; nil runs them inline.
	// Reductions go through the pool's blocked summation either way, so
	// results are bit-identical at every worker count.
	pool *parallel.Pool
}

// SetWorkers sets the worker count for the system's kernels (SpMV,
// axpy-style sweeps, reductions). n <= 0 selects GOMAXPROCS; 1 restores
// serial inline execution. Results are bit-identical for every n — the
// reductions are deterministic blocked sums (see internal/parallel).
func (s *System) SetWorkers(n int) {
	if n == 1 {
		s.pool = nil
		return
	}
	s.pool = parallel.New(n)
}

// SetPool attaches a caller-owned (possibly instrumented) pool; nil
// restores serial execution.
func (s *System) SetPool(p *parallel.Pool) { s.pool = p }

// Workers reports the configured scheduling width.
func (s *System) Workers() int { return s.pool.Workers() }

// dirs are the six face directions.
var dirs = [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

// Build assembles the operator from the leaf codes of a 2:1-balanced
// octree tiling; cell i of the System is leaves[i]. It returns an error
// when the input does not tile the domain exactly or violates the
// constraint.
func Build(leaves []morton.Code) (*System, error) {
	n := len(leaves)
	if n == 0 {
		return nil, fmt.Errorf("solver: no cells")
	}
	s := &System{
		codes:    append([]morton.Code(nil), leaves...),
		diag:     make([]float64, n),
		rowStart: make([]int32, n+1),
		// Six faces per cell is exact on uniform regions; split faces
		// grow the arrays.
		nb:     make([]int32, 0, 6*n),
		tr:     make([]float64, 0, 6*n),
		fdir:   make([]uint8, 0, 6*n),
		farea:  make([]float64, 0, 6*n),
		extent: make([]float64, n),
		vol:    make([]float64, n),
	}
	if err := s.buildIndex(); err != nil {
		return nil, err
	}
	face := func(i int, j int32, t float64, di int, area float64) {
		s.nb = append(s.nb, j)
		s.tr = append(s.tr, t)
		s.fdir = append(s.fdir, uint8(di))
		s.farea = append(s.farea, area)
		s.diag[i] += t
	}
	for i, c := range s.codes {
		s.rowStart[i] = int32(len(s.nb))
		h := c.Extent()
		s.extent[i], s.vol[i] = h, h*h*h
		for di, d := range dirs {
			nc, ok := c.Neighbor(d[0], d[1], d[2])
			if !ok {
				// Domain wall: Dirichlet ghost at distance h/2.
				face(i, -1, h*h/(h/2), di, h*h)
				continue
			}
			// The cell at nc's first key is nc itself, an ancestor of
			// nc (a coarser neighbor), or a descendant (nc is split).
			j := s.perm[s.search(nc.Key())]
			switch lj := s.codes[j].Level(); {
			case lj == c.Level():
				face(i, j, h*h/h, di, h*h)
			case lj < c.Level():
				hj := 1.0 / float64(uint64(1)<<lj)
				face(i, j, h*h/((h+hj)/2), di, h*h)
			default:
				// Finer neighbors: the four children of nc whose bit
				// along the face axis points back toward c. Under 2:1
				// balance each must be a cell.
				axis, sign := axisOf(di)
				back := 0
				if sign < 0 {
					back = 1
				}
				for k := 0; k < 8; k++ {
					if k>>axis&1 != back {
						continue
					}
					child := nc.Child(k)
					j, ok := s.lookup(child)
					if !ok {
						return nil, fmt.Errorf("solver: mesh not 2:1 balanced at %v (missing %v)", c, child)
					}
					hj := s.codes[j].Extent()
					face(i, int32(j), hj*hj/((h+hj)/2), di, hj*hj)
				}
			}
		}
	}
	s.rowStart[n] = int32(len(s.nb))
	return s, nil
}

// buildIndex sorts the cells into keys/perm and checks that they tile the
// unit cube exactly: in key order each cell starts where the previous one
// ended, from the origin to the far corner. Build's neighbor search relies
// on it.
func (s *System) buildIndex() error {
	n := len(s.codes)
	s.perm = make([]int32, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	slices.SortFunc(s.perm, func(a, b int32) int {
		return cmp.Compare(s.codes[a].Key(), s.codes[b].Key())
	})
	s.keys = make([]uint64, n)
	next := uint64(0) // left-aligned Morton position of the next cell
	for k, p := range s.perm {
		c := s.codes[p]
		s.keys[k] = c.Key()
		switch at := s.keys[k] >> 6; {
		case at > next:
			return fmt.Errorf("solver: cells do not tile the domain (gap before %v)", c)
		case at < next:
			prev := s.codes[s.perm[k-1]]
			if prev == c {
				return fmt.Errorf("solver: duplicate cell %v", c)
			}
			return fmt.Errorf("solver: cells %v and %v overlap", prev, c)
		}
		next += 1 << (3 * (morton.MaxLevel - c.Level()))
	}
	if next != 1<<(3*morton.MaxLevel) {
		return fmt.Errorf("solver: cells do not tile the domain (gap after %v)", s.codes[s.perm[n-1]])
	}
	return nil
}

// search returns the sorted position of the cell holding key k's
// left-aligned Morton position: the last cell whose first key is at or
// before it, or -1. k's level bits are ignored, so the search for a split
// octant lands on its first descendant.
func (s *System) search(k uint64) int {
	k |= 0x3f
	return sort.Search(len(s.keys), func(j int) bool { return s.keys[j] > k }) - 1
}

// lookup returns the index of the cell with code c, if there is one.
func (s *System) lookup(c morton.Code) (int, bool) {
	if k := s.search(c.Key()); k >= 0 && s.codes[s.perm[k]] == c {
		return int(s.perm[k]), true
	}
	return 0, false
}

// N returns the number of cells.
func (s *System) N() int { return len(s.codes) }

// Codes returns the cell codes in assembly order.
func (s *System) Codes() []morton.Code { return s.codes }

// Apply computes y = A x, where A is the (SPD) negative Laplacian with
// Dirichlet walls: (Ax)_i = sum_f T_f (x_i - x_j), wall x_j = 0. Rows are
// independent, so the sweep parallelizes without changing any result bit.
func (s *System) Apply(x, y []float64) {
	rs, nb, tr := s.rowStart, s.nb, s.tr
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.diag[i] * x[i]
			for k := rs[i]; k < rs[i+1]; k++ {
				if j := nb[k]; j >= 0 {
					acc -= tr[k] * x[j]
				}
			}
			y[i] = acc
		}
	})
}

// Options tunes the CG iteration.
type Options struct {
	// Tol is the relative residual target (default 1e-8).
	Tol float64
	// MaxIter bounds the iteration count (default 10*N).
	MaxIter int
}

// Result reports a completed solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// Solve runs Jacobi-preconditioned conjugate gradients on A x = b·V (b is
// a cell-centered source density; the right-hand side integrates it over
// each cell volume). x is overwritten with the solution; pass a zero
// slice for a cold start.
func (s *System) Solve(b []float64, x []float64, opt Options) (Result, error) {
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

	// rhs_i = b_i * V_i (finite-volume integration).
	rhs := make([]float64, n)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.codes[i].Extent()
			rhs[i] = b[i] * e * e * e
		}
	})

	r := make([]float64, n)
	s.Apply(x, r)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = rhs[i] - r[i]
		}
	})
	z := make([]float64, n)
	precond := func() {
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = r[i] / s.diag[i]
			}
		})
	}
	precond()
	p := append([]float64(nil), z...)
	ap := make([]float64, n)

	rz := s.pool.Dot(r, z)
	// An all-zero right-hand side (no sources anywhere) has the exact
	// solution x = 0; dividing by norm0 would turn every residual into
	// NaN, so report the converged zero solution instead.
	norm0 := s.pool.Norm2(rhs)
	if norm0 == 0 {
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
			return res, nil
		}
		s.Apply(p, ap)
		alpha := rz / s.pool.Dot(p, ap)
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
		})
		precond()
		rzNew := s.pool.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
	res.Residual = s.pool.Norm2(r) / norm0
	res.Converged = res.Residual <= opt.Tol
	return res, nil
}

// dot is the serial form of the deterministic blocked inner product —
// the same blocking every pool width uses (internal/parallel).
func dot(a, b []float64) float64 {
	return (*parallel.Pool)(nil).Dot(a, b)
}
