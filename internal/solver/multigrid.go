package solver

import (
	"fmt"

	"pmoctree/internal/morton"
	"pmoctree/internal/octree"
	"pmoctree/internal/parallel"
)

// Multigrid is a geometric V-cycle solver for the Dirichlet Poisson
// problem on UNIFORM octree meshes — the solver family Gerris uses. The
// octree is its own grid hierarchy: level l's cells are the parents of
// level l+1's, finite-volume restriction is summation of child residuals,
// and prolongation is piecewise-constant injection. Iteration counts stay
// flat as the mesh refines (O(N) total work), which is what distinguishes
// it from the CG path (System.Solve) that also handles adaptive meshes.
type Multigrid struct {
	// systems[k] is the operator at level k+1 (systems[len-1] is the
	// finest).
	systems []*System
	// parent[k][i] maps fine cell i at systems[k] to its parent's index
	// in systems[k-1].
	parent [][]int
	// children[k][j] lists the fine indices at systems[k] owned by coarse
	// cell j at systems[k-1], in ascending fine order — the inverse of
	// parent, so restriction can GATHER per coarse cell instead of
	// scattering per fine cell. The gather visits each parent's children
	// in the same order the serial scatter did, so restricted residuals
	// are bit-identical at any worker count.
	children [][][]int

	// Smoother parameters: damped-Jacobi sweeps before/after coarse
	// correction.
	PreSmooth, PostSmooth int
	Omega                 float64

	// pool schedules the level sweeps; nil runs them inline.
	pool *parallel.Pool
}

// SetWorkers sets the worker count for all level sweeps and reductions
// (n <= 0 selects GOMAXPROCS, 1 restores serial execution). Residual
// histories and V-cycle counts are bit-identical for every n.
func (mg *Multigrid) SetWorkers(n int) {
	if n == 1 {
		mg.pool = nil
	} else {
		mg.pool = parallel.New(n)
	}
	for _, s := range mg.systems {
		s.pool = mg.pool
	}
}

// SetPool attaches a caller-owned pool to every level; nil restores
// serial execution.
func (mg *Multigrid) SetPool(p *parallel.Pool) {
	mg.pool = p
	for _, s := range mg.systems {
		s.pool = p
	}
}

// Workers reports the configured scheduling width.
func (mg *Multigrid) Workers() int { return mg.pool.Workers() }

// NewUniformMultigrid builds the hierarchy for the full uniform mesh at
// the given level (>= 1).
func NewUniformMultigrid(level uint8) (*Multigrid, error) {
	if level < 1 {
		return nil, fmt.Errorf("solver: multigrid needs level >= 1")
	}
	mg := &Multigrid{PreSmooth: 4, PostSmooth: 4, Omega: 0.85}
	for l := uint8(1); l <= level; l++ {
		tr := octree.New()
		tr.RefineWhere(func(morton.Code) bool { return true }, l)
		s, err := Build(tr.LeafCodes())
		if err != nil {
			return nil, err
		}
		mg.systems = append(mg.systems, s)
	}
	// Parent maps: child code's ancestor one level up, plus the inverse
	// children lists for gather-style restriction.
	mg.parent = make([][]int, len(mg.systems))
	mg.children = make([][][]int, len(mg.systems))
	for k := 1; k < len(mg.systems); k++ {
		fine, coarse := mg.systems[k], mg.systems[k-1]
		m := make([]int, fine.N())
		kids := make([][]int, coarse.N())
		for i, c := range fine.codes {
			p, ok := morton.Lookup(coarse.codes, c.Parent())
			if !ok {
				return nil, fmt.Errorf("solver: missing parent of %v in level %d", c, k)
			}
			m[i] = p
			kids[p] = append(kids[p], i)
		}
		mg.parent[k] = m
		mg.children[k] = kids
	}
	return mg, nil
}

// Fine returns the finest-level operator (for assembling right-hand
// sides and reading cell geometry).
func (mg *Multigrid) Fine() *System { return mg.systems[len(mg.systems)-1] }

// N returns the fine-grid cell count.
func (mg *Multigrid) N() int { return mg.Fine().N() }

// smooth performs damped-Jacobi sweeps on A x = rhs at level k.
func (mg *Multigrid) smooth(k int, x, rhs, scratch []float64, sweeps int) {
	s := mg.systems[k]
	for it := 0; it < sweeps; it++ {
		s.Apply(x, scratch)
		mg.pool.RunMin(len(x), minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] += mg.Omega * (rhs[i] - scratch[i]) / s.diag[i]
			}
		})
	}
}

// vcycle runs one V-cycle at level k for A x = rhs (integrated FV units).
func (mg *Multigrid) vcycle(k int, x, rhs []float64) {
	s := mg.systems[k]
	scratch := make([]float64, s.N())
	if k == 0 {
		// Coarsest grid (8 cells): smooth to convergence.
		mg.smooth(0, x, rhs, scratch, 50)
		return
	}
	mg.smooth(k, x, rhs, scratch, mg.PreSmooth)

	// Residual, restricted by summation (FV integrated quantities). The
	// parallel form gathers per coarse cell — a scatter over fine cells
	// would race — visiting children in the serial scatter's order, so
	// the restriction is bit-identical at any worker count.
	s.Apply(x, scratch)
	coarse := mg.systems[k-1]
	crhs := make([]float64, coarse.N())
	kids := mg.children[k]
	mg.pool.RunMin(coarse.N(), minStencil, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			acc := 0.0
			for _, i := range kids[j] {
				acc += rhs[i] - scratch[i]
			}
			crhs[j] = acc
		}
	})
	ce := make([]float64, coarse.N())
	mg.vcycle(k-1, ce, crhs)

	// Prolongate (inject) and correct.
	parent := mg.parent[k]
	mg.pool.RunMin(len(x), minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += ce[parent[i]]
		}
	})
	mg.smooth(k, x, rhs, scratch, mg.PostSmooth)
}

// Solve runs V-cycles on A x = b*V until the relative residual drops
// below opt.Tol. Result.Iterations counts V-cycles.
func (mg *Multigrid) Solve(b []float64, x []float64, opt Options) (Result, error) {
	s := mg.Fine()
	n := s.N()
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("solver: vector length %d/%d, want %d", len(b), len(x), n)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100
	}
	rhs := make([]float64, n)
	mg.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.codes[i].Extent()
			rhs[i] = b[i] * e * e * e
		}
	})
	// All-zero right-hand side: the exact solution is x = 0, and norm0
	// would otherwise divide every residual into NaN.
	norm0 := mg.pool.Norm2(rhs)
	if norm0 == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}, nil
	}
	r := make([]float64, n)
	residual := func() float64 {
		s.Apply(x, r)
		mg.pool.RunMin(n, minAxpy, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r[i] = rhs[i] - r[i]
			}
		})
		return mg.pool.Norm2(r) / norm0
	}
	var res Result
	for res.Iterations = 0; res.Iterations < opt.MaxIter; res.Iterations++ {
		res.Residual = residual()
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
		mg.vcycle(len(mg.systems)-1, x, rhs)
	}
	res.Residual = residual()
	res.Converged = res.Residual <= opt.Tol
	return res, nil
}
