// Package solver implements a cell-centered finite-volume Poisson solver
// on 2:1-balanced adaptive octree meshes — the pressure-projection core a
// Gerris-style incompressible flow solver runs every time step (§4 of the
// paper). One iteration solves both the Dirichlet (System.Solve) and the
// Neumann projection (System.SolveNeumann) problem: conjugate gradients
// preconditioned by one geometric multigrid V-cycle over the mesh's own
// octree levels, as Gerris solves Poisson. Build derives the coarser
// levels from the Z-ordered leaf codes themselves, so any 2:1-balanced
// adaptive mesh has a hierarchy, and the iteration count stays nearly
// flat as the mesh refines.
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
	"fmt"
	"sync"
	"sync/atomic"

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
// decision 16). Cell i is input leaf i; the codes are in Z-order, so
// point location and Build's neighbor search are morton key-space
// searches over them.
//
// A System is safe for concurrent read-only use (Apply, Divergence, ...
// into caller-owned output vectors); the iterative solvers own their
// scratch state, so distinct Solve calls on distinct vectors may also run
// concurrently.
type System struct {
	codes []morton.Code
	diag  []float64 // sum of transmissibilities per cell
	ndiag []float64 // the same without wall faces (1 on an isolated cell)

	// CSR face arrays: cell i's interior faces are entries
	// [rowStart[i], rowStart[i+1]) of nb/tr/fdir/farea, in dirs order, the
	// four halves of a split face in ascending child order. Every
	// accumulation over a row runs in that order. Wall faces have no
	// entry: their transmissibility is in diag alone.
	rowStart []int32
	nb       []int32   // adjacent cell index
	tr       []float64 // transmissibility A/d
	fdir     []uint8   // direction index into dirs
	farea    []float64 // face area

	// Per-cell geometry, precomputed once at build.
	extent []float64
	vol    []float64 // extent^3

	// coarse is the next coarser level of the V-cycle hierarchy, nil on
	// the coarsest; its cell j holds this level's cells
	// [kids[j], kids[j+1]). Both are fixed at Build.
	coarse *System
	kids   []int32

	// stencil holds StencilCell's answers, 26 per cell, each the cell plus
	// one (zero while unsearched); stencilOnce allocates it on first use.
	stencilOnce sync.Once
	stencil     []atomic.Int32

	// pool schedules the matrix-free kernels of every level; nil runs
	// them inline. Reductions go through the pool's blocked summation
	// either way, so results are bit-identical at every worker count.
	pool *parallel.Pool
}

// SetWorkers sets the worker count for the system's kernels (SpMV,
// axpy-style sweeps, reductions). n <= 0 selects GOMAXPROCS; 1 restores
// serial inline execution. Results are bit-identical for every n — the
// reductions are deterministic blocked sums (see internal/parallel).
func (s *System) SetWorkers(n int) {
	if n == 1 {
		s.SetPool(nil)
		return
	}
	s.SetPool(parallel.New(n))
}

// SetPool attaches a caller-owned (possibly instrumented) pool; nil
// restores serial execution.
func (s *System) SetPool(p *parallel.Pool) {
	for l := s; l != nil; l = l.coarse {
		l.pool = p
	}
}

// Workers reports the configured scheduling width.
func (s *System) Workers() int { return s.pool.Workers() }

// dirs are the six face directions.
var dirs = [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

// Build assembles the operator from the leaf codes of a 2:1-balanced
// octree tiling in Z-order (ascending codes, as Tree.LeafCodes returns
// them); cell i of the System is leaves[i]. It returns an error when the
// input is not such a tiling or violates the constraint. Build also
// assembles the solves' V-cycle hierarchy (multigrid.go): each coarser
// level merges the finest cells of the one above into their parents,
// until a level has at most 64 cells.
func Build(leaves []morton.Code) (*System, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("solver: no cells")
	}
	s, err := assemble(append([]morton.Code(nil), leaves...))
	if err != nil {
		return nil, err
	}
	for l := s; l.N() > coarsest; l = l.coarse {
		codes, kids := coarsen(l.codes)
		if l.coarse, err = assemble(codes); err != nil {
			return nil, err
		}
		l.kids = kids
	}
	return s, nil
}

// assemble builds one level's operator over codes, which it keeps.
func assemble(codes []morton.Code) (*System, error) {
	n := len(codes)
	s := &System{
		codes:    codes,
		diag:     make([]float64, n),
		ndiag:    make([]float64, n),
		rowStart: make([]int32, n+1),
		// Six faces per cell is exact on uniform regions, and each split
		// face adds three. The room for one split face per sixth cell
		// holds graded meshes with thin refinement fronts; more split
		// faces grow the arrays once.
		nb:     make([]int32, 0, 6*n+n/2),
		tr:     make([]float64, 0, 6*n+n/2),
		fdir:   make([]uint8, 0, 6*n+n/2),
		farea:  make([]float64, 0, 6*n+n/2),
		extent: make([]float64, n),
		vol:    make([]float64, n),
	}
	if err := tiles(s.codes); err != nil {
		return nil, err
	}
	face := func(i int, j int32, t float64, di int, area float64) {
		s.nb = append(s.nb, j)
		s.tr = append(s.tr, t)
		s.fdir = append(s.fdir, uint8(di))
		s.farea = append(s.farea, area)
		s.diag[i] += t
		s.ndiag[i] += t
	}
	for i, c := range s.codes {
		s.rowStart[i] = int32(len(s.nb))
		h := c.Extent()
		s.extent[i], s.vol[i] = h, h*h*h
		for di, d := range dirs {
			nc, ok := c.Neighbor(d[0], d[1], d[2])
			if !ok {
				// Domain wall: a Dirichlet ghost at distance h/2, which
				// only the Dirichlet diagonal sees. The row gets no entry,
				// so the sweeps run over interior faces alone.
				s.diag[i] += h * h / (h / 2)
				continue
			}
			// The cell holding nc's first cell is nc itself, an
			// ancestor of nc (a coarser neighbor), or a descendant (nc
			// is split).
			j, _ := morton.ContainerNear(s.codes, nc, i)
			switch lj := s.codes[j].Level(); {
			case lj == c.Level():
				face(i, int32(j), h*h/h, di, h*h)
			case lj < c.Level():
				hj := 1.0 / float64(uint64(1)<<lj)
				face(i, int32(j), h*h/((h+hj)/2), di, h*h)
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
					j, ok := morton.Lookup(s.codes, child)
					if !ok {
						return nil, fmt.Errorf("solver: mesh not 2:1 balanced at %v (missing %v)", c, child)
					}
					hj := s.codes[j].Extent()
					face(i, int32(j), hj*hj/((h+hj)/2), di, hj*hj)
				}
			}
		}
		if s.ndiag[i] == 0 {
			s.ndiag[i] = 1 // isolated cell (single-cell mesh)
		}
	}
	s.rowStart[n] = int32(len(s.nb))
	return s, nil
}

// tiles checks that codes tile the unit cube exactly in Z-order: each
// cell starts where the previous one ended, from the origin to the far
// corner. Build's neighbor search relies on it.
func tiles(codes []morton.Code) error {
	next := uint64(0) // left-aligned Morton position of the next cell
	for k, c := range codes {
		switch at := uint64(c) >> 6; {
		case at > next:
			return fmt.Errorf("solver: cells do not tile the domain in Z-order (gap before %v)", c)
		case at < next:
			if prev := codes[k-1]; prev != c {
				return fmt.Errorf("solver: cells %v and %v overlap or are out of Z-order", prev, c)
			}
			return fmt.Errorf("solver: duplicate cell %v", c)
		}
		next += 1 << (3 * (morton.MaxLevel - c.Level()))
	}
	if next != 1<<(3*morton.MaxLevel) {
		return fmt.Errorf("solver: cells do not tile the domain in Z-order (gap after %v)", codes[len(codes)-1])
	}
	return nil
}

// N returns the number of cells.
func (s *System) N() int { return len(s.codes) }

// Codes returns the cell codes in assembly order.
func (s *System) Codes() []morton.Code { return s.codes }

// apply computes y = A x for the Dirichlet (neumann false) or the
// Neumann operator.
func (s *System) apply(neumann bool, x, y []float64) {
	if neumann {
		s.ApplyNeumann(x, y)
	} else {
		s.Apply(x, y)
	}
}

// Apply computes y = A x, where A is the (SPD) negative Laplacian with
// Dirichlet walls: (Ax)_i = sum_f T_f (x_i - x_j), wall x_j = 0 (so a
// wall adds T_f x_i, which diag already holds). Rows are
// independent, so the sweep parallelizes without changing any result bit.
func (s *System) Apply(x, y []float64) {
	rs, nb, tr := s.rowStart, s.nb, s.tr
	s.pool.RunMin(len(s.codes), minStencil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := rs[i], rs[i+1]
			row, t := nb[a:b], tr[a:b]
			acc := s.diag[i] * x[i]
			for k, j := range row {
				acc -= t[k] * x[j]
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

// Solve runs V-cycle-preconditioned conjugate gradients on A x = b·V (b
// is a cell-centered source density; the right-hand side integrates it
// over each cell volume). x is overwritten with the solution; pass a zero
// slice for a cold start.
func (s *System) Solve(b []float64, x []float64, opt Options) (Result, error) {
	return s.solve(b, x, func(rhs []float64) Result { return s.pcg(false, rhs, x, opt) })
}

// solve checks the vector lengths, integrates the right-hand side
// rhs_i = b_i * V_i and runs body on it. The whole solve is one Warm
// scope of the pool: its sweeps are a chain of dependent runs, each
// waiting on the one before (DESIGN.md decision 11(b)).
func (s *System) solve(b, x []float64, body func(rhs []float64) Result) (Result, error) {
	n := s.N()
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("solver: vector length %d/%d, want %d", len(b), len(x), n)
	}
	var res Result
	s.pool.Warm(func() {
		rhs := make([]float64, n)
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rhs[i] = b[i] * s.vol[i]
			}
		})
		res = body(rhs)
	})
	return res, nil
}

// pcg is the one CG loop behind Solve (Dirichlet) and SolveNeumann,
// preconditioned by one V-cycle per iteration. It stops early, not
// converged, when the search direction has no positive curvature: the
// Neumann null space has leaked in, or the input was not finite.
func (s *System) pcg(neumann bool, rhs, x []float64, opt Options) Result {
	n := s.N()
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	// An all-zero right-hand side (no sources anywhere) has the exact
	// solution x = 0 (the mean-free one in the Neumann case); dividing by
	// norm0 would turn every residual into NaN, and returning a warm
	// start untouched would hand back an unconverged x.
	norm0 := s.pool.Norm2(rhs)
	if norm0 == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}
	}

	work := s.workspace()
	r := make([]float64, n)
	s.apply(neumann, x, r)
	s.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = rhs[i] - r[i]
		}
	})
	z := make([]float64, n)
	s.vcycle(neumann, r, z, work)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := s.pool.Dot(r, z)

	var res Result
	for res.Iterations = 0; res.Iterations < opt.MaxIter; res.Iterations++ {
		res.Residual = s.pool.Norm2(r) / norm0
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res
		}
		s.apply(neumann, p, ap)
		pap := s.pool.Dot(p, ap)
		if !(pap > 0) {
			return res
		}
		alpha := rz / pap
		s.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
		})
		s.vcycle(neumann, r, z, work)
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
	return res
}

// dot is the serial form of the deterministic blocked inner product —
// the same blocking every pool width uses (internal/parallel).
func dot(a, b []float64) float64 {
	return (*parallel.Pool)(nil).Dot(a, b)
}
