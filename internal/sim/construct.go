package sim

import (
	"pmoctree/internal/bulk"
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
	"pmoctree/internal/telemetry"
)

// constructingMesh is the optional bulk-construction contract (core.Tree
// provides it): replace the whole working version with a tree built from
// a sorted leaf set plus per-leaf payloads in one shot.
type constructingMesh interface {
	Mesh
	ConstructFromCodes(codes []morton.Code, data [][DataWords]float64, pool *parallel.Pool, balance bool) (int, error)
}

// ConstructInitial is the scenario start-up fast path: instead of growing
// the first step's mesh by incremental refinement (a split at a time, each
// a COW write), it derives the step-s leaf set top-down from the
// refinement criterion, 2:1-balances the codes flat (internal/bulk), runs
// the step's SolverSweeps relaxation sweeps per cell from the zero state,
// and hands the finished (codes, fields) set to the mesh's bulk
// constructor.
//
// The resulting mesh — structure, field values, and the returned
// StepCounts — is bit-identical to Step/StepFieldPool of the same step on
// a fresh mesh, at any worker count. It applies only to a fresh mesh (one
// root leaf, nothing committed beyond the root): on any other mesh, or one
// without the bulk-construction contract, it reports ok=false and does
// nothing, and the caller falls back to the incremental step.
func ConstructInitial(m Mesh, f Field, step int, maxLevel uint8, pool *parallel.Pool) (sc StepCounts, ok bool) {
	cm, isCM := m.(constructingMesh)
	if !isCM || m.LeafCount() != 1 {
		return StepCounts{}, false
	}
	telemetry.TracerOf(m).SetStep(uint64(step))
	defer telemetry.TracerOf(m).Begin("Construct").End()

	// Refine-closure of the root under the step's criterion: exactly the
	// leaf set RefineWhere produces, enumerated without touching the mesh.
	raw := descendLeaves(RefinePredOf(f, step), maxLevel, pool)
	// The step driver's Coarsen pass is a no-op here: every parent in the
	// closure just satisfied the refine test, which contradicts the
	// coarsen test's clearance margin.
	balanced, err := bulk.Balance(raw, pool)
	if err != nil {
		return StepCounts{}, false // unreachable: the closure is a partition
	}

	// The step's solve: SolverSweeps relaxation sweeps from the zero field
	// state, run per cell as the tiled step does. Solved counts
	// first-sweep changes, as StepCounts defines.
	data := make([][DataWords]float64, len(balanced))
	changed := make([]bool, len(balanced))
	speed := f.Speed()
	pool.Run(len(balanced), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := balanced[i]
			x, y, z := c.Center()
			changed[i] = relax(speed, f.PhiAtStep(x, y, z, step), c.Extent(), &data[i], SolverSweeps)
		}
	})

	if _, err := cm.ConstructFromCodes(balanced, data, pool, false); err != nil {
		return StepCounts{}, false
	}
	// Split counts fall out of the full-octree identity leaves = 7*splits+1:
	// the closure's splits are Refine's, the extra ones are Balance's.
	sc.Refined = (len(raw) - 1) / 7
	sc.Balanced = (len(balanced) - len(raw)) / 7
	for _, ch := range changed {
		if ch {
			sc.Solved++
		}
	}
	sc.Leaves = len(balanced)
	return sc, true
}

// descendLeaves enumerates, in Z-order, the leaves of the refine-closure
// of the root: descend while the criterion holds and the level permits.
// The top few levels are expanded serially into independent subtree tasks,
// which then descend in parallel; concatenating the per-task buckets in
// task order restores the global Z-order for any worker count.
func descendLeaves(pred func(morton.Code) bool, maxLevel uint8, pool *parallel.Pool) []morton.Code {
	const seedDepth = 3
	type task struct {
		c    morton.Code
		open bool
	}
	var tasks []task
	var seed func(c morton.Code, depth int)
	seed = func(c morton.Code, depth int) {
		if c.Level() >= maxLevel || !pred(c) {
			tasks = append(tasks, task{c, false})
			return
		}
		if depth == 0 {
			tasks = append(tasks, task{c, true})
			return
		}
		for i := 0; i < 8; i++ {
			seed(c.Child(i), depth-1)
		}
	}
	seed(morton.Root, seedDepth)

	buckets := make([][]morton.Code, len(tasks))
	pool.RunMin(len(tasks), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := tasks[i]
			if !t.open {
				buckets[i] = []morton.Code{t.c}
				continue
			}
			var walk func(c morton.Code)
			walk = func(c morton.Code) {
				if c.Level() >= maxLevel || !pred(c) {
					buckets[i] = append(buckets[i], c)
					return
				}
				for k := 0; k < 8; k++ {
					walk(c.Child(k))
				}
			}
			for k := 0; k < 8; k++ {
				walk(t.c.Child(k))
			}
		}
	})
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	out := make([]morton.Code, 0, total)
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}
