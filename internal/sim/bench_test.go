package sim

import (
	"fmt"
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/parallel"
)

// BenchmarkTiledSolve times the tiled step's Solve alone (tiledSolve: one
// pass over the leaf tiles that evaluates each cell's level set and runs
// its SolverSweeps updates, then the scatter of the changed cells) on the
// level-7 droplet behind a 2 048-octant C0, at 1 and 2 workers. Each
// iteration moves the interface one step and adapts the mesh to it
// untimed, times the solve, and persists untimed, so every solve runs
// over a committed, C0-evicted mesh as a real step's does. Iterations
// march through steps 21-80 of 80 and start over on a fresh tree, so the
// per-op numbers are the mean over that window whenever b.N is a multiple
// of 60 (-benchtime 60x).
func BenchmarkTiledSolve(b *testing.B) {
	const maxLevel, steps, first = 7, 80, 21
	d := NewDroplet(DropletConfig{Steps: steps})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			var pool *parallel.Pool
			if workers > 1 {
				pool = parallel.New(workers)
			}
			var (
				tree   *core.Tree
				solved int
			)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				step := first + i%(steps-first+1)
				if step == first {
					tree = core.Create(core.Config{DRAMBudgetOctants: 2048})
					if _, ok := ConstructInitial(tree, d, 1, maxLevel, pool); !ok {
						b.Fatal("ConstructInitial refused a fresh tree")
					}
					tree.Persist()
					for s := 2; s < first; s++ {
						StepFieldPool(tree, d, s, maxLevel, pool)
						tree.Persist()
					}
				}
				tree.RefineWhere(d.RefinePred(step), maxLevel)
				tree.CoarsenWhere(d.CoarsenPred(step))
				tree.Balance()
				b.StartTimer()
				n, _ := tiledSolve(tree, d, step, pool)
				b.StopTimer()
				solved += n
				tree.Persist()
				b.StartTimer()
			}
			b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
		})
	}
}
