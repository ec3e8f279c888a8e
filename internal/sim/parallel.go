package sim

import (
	"slices"
	"sync"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
	"pmoctree/internal/telemetry"
	"pmoctree/internal/tile"
)

// The tiled sweep stores the octree payload verbatim.
var _ = [1]struct{}{}[tile.Words-DataWords]

// minTileSolve is the serial cutoff (in cells) for the tiled relaxation
// sweep: one cell costs an exp and a handful of flops, so small meshes
// run inline.
const minTileSolve = 4096

// StepWorkers is StepField with an explicit worker count: the refinement,
// coarsening and solve PREDICATES — the level-set evaluations that
// dominate the step's CPU time — are pre-evaluated in parallel over a
// snapshot of the leaf codes, while the octree traversal and all device
// accesses stay serial. The mesh evolution (refines, coarsens, field
// values, step counts) is therefore bit-identical at every worker count;
// workers <= 0 selects GOMAXPROCS and 1 is exactly the serial StepField.
func StepWorkers(m Mesh, f Field, step int, maxLevel uint8, workers int) StepCounts {
	if workers == 1 {
		return StepFieldPool(m, f, step, maxLevel, nil)
	}
	return StepFieldPool(m, f, step, maxLevel, parallel.New(workers))
}

// StepFieldPool advances mesh through one AMR time step, scheduling
// predicate evaluation on pool (nil pool: everything inline).
//
// In parallel mode the driver snapshots the leaf codes it pre-evaluates.
// A mesh with a leaf index (core.Tree) serves them without a walk, so its
// modeled device traffic is the same at every worker count; other meshes
// pay a charged read-only traversal per snapshot.
func StepFieldPool(m Mesh, f Field, step int, maxLevel uint8, pool *parallel.Pool) StepCounts {
	// The mesh spans its own routines; the driver only tags them with the
	// step index (core.Tree tags with its own version counter instead).
	telemetry.TracerOf(m).SetStep(uint64(step))
	var sc StepCounts
	serial := pool.Workers() == 1

	refine := RefinePredOf(f, step)
	if !serial {
		refine = memoPred(leafCodes(m), pool, refine)
	}
	sc.Refined = m.RefineWhere(refine, maxLevel)

	coarsen := CoarsenPredOf(f, step)
	if !serial {
		// Coarsening tests the PARENT of a complete sibling group, so the
		// memo covers each current leaf's parent.
		coarsen = memoPred(leafParents(m), pool, coarsen)
	}
	sc.Coarsened = m.CoarsenWhere(coarsen)

	sc.Balanced = m.Balance()

	if tm, tiled := m.(tiledMesh); tiled {
		// Tiled SoA path: borrow the mesh's leaf index, run all sweeps over
		// its contiguous field slices, scatter the changed cells back in
		// one batch. Bit-identical to the sweeps below, which remain for
		// meshes without tiles.
		sc.Solved, sc.Leaves = tiledSolve(tm, f, step, pool)
		return sc
	}

	// The level set is a pure function of (cell, step) and every sweep
	// visits the leaves in the same Z-order: it is evaluated once per leaf
	// — up front on the pool, or during the first sweep on the serial path
	// — and replayed by visit position on the remaining sweeps.
	replay := phiReplay{f: f, step: step, speed: f.Speed()}
	if !serial {
		replay.prefill(leafCodes(m), pool)
	}
	for it := 0; it < SolverSweeps; it++ {
		replay.pos = 0
		n := m.UpdateLeaves(replay.solve)
		if it == 0 {
			sc.Solved = n
		}
	}
	sc.Leaves = m.LeafCount()
	return sc
}

// tiledMesh is the optional SoA contract (core.Tree provides it): the
// Morton-ordered tiled leaf index, lent to the kernel, plus the scatter
// writing modified cells back. Field results are bit-identical to the Mesh
// sweeps; the modeled device traffic is lower — one batched copy-on-write
// walk over the changed leaves instead of SolverSweeps whole-tree walks.
type tiledMesh interface {
	Mesh
	LeafTiles() *tile.Store
	ScatterLeafTiles(*tile.Store) int
}

// solveScratch is tiledSolve's per-step working set, recycled across steps
// and meshes.
type solveScratch struct {
	phis, eps []float64
	counts    []int32
}

var solveScratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

// tiledSolve runs the relaxation sweeps over the mesh's tiled SoA leaf
// index: one loan, SolverSweeps flat sweeps scheduled in tile-aligned
// chunks, one scatter of every cell any sweep changed — all under one Solve
// span of the mesh's tracer, the routine the three stand for. The per-cell
// update is solveCellFlat — solveCell's arithmetic term for term — and
// the changed counts are integer sums folded in tile order, so the mesh
// evolution is bit-identical to the per-leaf path at every worker count.
func tiledSolve(tm tiledMesh, f Field, step int, pool *parallel.Pool) (solved, leaves int) {
	defer telemetry.TracerOf(tm).Begin("Solve").End()
	st := tm.LeafTiles()
	codes := st.Codes()
	n := len(codes)
	sc := solveScratchPool.Get().(*solveScratch)
	defer solveScratchPool.Put(sc)
	sc.phis = slices.Grow(sc.phis[:0], n)[:n]
	sc.eps = slices.Grow(sc.eps[:0], n)[:n]
	sc.counts = slices.Grow(sc.counts[:0], st.Tiles())[:st.Tiles()]
	phis, eps, counts := sc.phis, sc.eps, sc.counts
	// The level set is a pure function of (cell, step): evaluate it once
	// per leaf in parallel and share it across all sweeps, alongside the
	// cell extents the smoothing band scales with.
	pool.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y, z := codes[i].Center()
			phis[i] = f.PhiAtStep(x, y, z, step)
			eps[i] = codes[i].Extent()
		}
	})
	speed := f.Speed()
	for it := 0; it < SolverSweeps; it++ {
		st.RunTileRanges(pool, minTileSolve, func(tileLo, tileHi int) {
			for ti := tileLo; ti < tileHi; ti++ {
				lo, hi := st.TileBounds(ti)
				changed := int32(0)
				for i := lo; i < hi; i++ {
					if solveCellFlat(speed, phis[i], eps[i], i, st) {
						st.MarkDirty(i)
						changed++
					}
				}
				counts[ti] = changed
			}
		})
		if it == 0 {
			for _, c := range counts {
				solved += int(c)
			}
		}
	}
	tm.ScatterLeafTiles(st)
	return solved, n
}

// indexedMesh is the optional contract of a mesh that keeps a Z-order leaf
// index (core.Tree does): its leaf codes without a tree walk.
type indexedMesh interface {
	LeafCodesSnapshot() []morton.Code
}

// leafCodes snapshots the mesh's current leaf codes. Meshes with a leaf
// index serve it from the cached Z-order snapshot (free when still
// valid); otherwise this is a charged read-only traversal, like any
// other leaf walk. Callers consume the slice before mutating the mesh.
func leafCodes(m Mesh) []morton.Code {
	if im, ok := m.(indexedMesh); ok {
		return im.LeafCodesSnapshot()
	}
	codes := make([]morton.Code, 0, m.LeafCount())
	m.ForEachLeaf(func(c morton.Code, _ [DataWords]float64) bool {
		codes = append(codes, c)
		return true
	})
	return codes
}

// leafParents snapshots the distinct parents of the current leaves,
// ascending. Siblings are contiguous in the Z-ordered leaf walk, so
// comparing against the previous parent removes most duplicates; a coarse
// parent interleaved with deeper subtrees (the root, typically) appears
// in several runs, so the parents are then sorted and compacted.
func leafParents(m Mesh) []morton.Code {
	var parents []morton.Code
	for _, c := range leafCodes(m) {
		if p := c.Parent(); c.Level() > 0 && (len(parents) == 0 || parents[len(parents)-1] != p) {
			parents = append(parents, p)
		}
	}
	slices.Sort(parents)
	return slices.Compact(parents)
}

// memoPred evaluates pred over codes, ascending and distinct, on the
// pool and returns a lookup predicate. Codes outside the snapshot
// (octants created mid-pass — refinement recursing into fresh children,
// coarsening cascading upward) fall back to direct evaluation, so the
// memo is an optimization, never a semantic change.
func memoPred(codes []morton.Code, pool *parallel.Pool, pred func(morton.Code) bool) func(morton.Code) bool {
	vals := make([]bool, len(codes))
	pool.Run(len(codes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = pred(codes[i])
		}
	})
	return func(c morton.Code) bool {
		if i, ok := morton.Lookup(codes, c); ok {
			return vals[i]
		}
		return pred(c)
	}
}

// phiReplay is the solve sweeps' level-set memo: codes and phis hold the
// leaves in visit order with their level-set values, pos the next visit.
// A visit past the recorded end evaluates and records (the serial first
// sweep fills the memo this way); a visit whose code differs from the
// recorded one evaluates directly, so the memo is an optimization, never a
// semantic change.
type phiReplay struct {
	f     Field
	step  int
	speed float64
	codes []morton.Code
	phis  []float64
	pos   int
}

// prefill evaluates the level set at every leaf center on the pool. codes
// is copied: the mesh reuses its snapshot's backing array across the
// sweeps' mutations.
func (r *phiReplay) prefill(codes []morton.Code, pool *parallel.Pool) {
	r.codes = slices.Clone(codes)
	r.phis = make([]float64, len(codes))
	pool.Run(len(codes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y, z := codes[i].Center()
			r.phis[i] = r.f.PhiAtStep(x, y, z, r.step)
		}
	})
}

// solve is the relaxation sweep (SolveOf) reading the level set from the
// memo.
func (r *phiReplay) solve(c morton.Code, data *[DataWords]float64) bool {
	i := r.pos
	r.pos++
	if i < len(r.codes) && r.codes[i] == c {
		return solveCell(r.speed, r.phis[i], c, data)
	}
	x, y, z := c.Center()
	phi := r.f.PhiAtStep(x, y, z, r.step)
	if i == len(r.codes) {
		r.codes = append(r.codes, c)
		r.phis = append(r.phis, phi)
	}
	return solveCell(r.speed, phi, c, data)
}
