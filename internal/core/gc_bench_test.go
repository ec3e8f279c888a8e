package core_test

import (
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/sim"
)

// BenchmarkCoreGC times one steady-state collection after a level-7
// droplet step: each iteration steps and persists the mesh untimed (the
// tree collects only when asked), then times one GC, which frees what the
// step superseded. ledger answers from the lifetime ledger, as Persist
// does; marksweep forces the full mark-and-sweep, the ledger's oracle.
// Iterations march through steps 21-80 of 80 and start over on a fresh
// tree, so the per-op numbers are the mean over that window whenever b.N
// is a multiple of 60 (-benchtime 60x).
func BenchmarkCoreGC(b *testing.B) {
	const maxLevel, steps, first = 7, 80, 21
	for _, mode := range []string{"ledger", "marksweep"} {
		b.Run(mode, func(b *testing.B) {
			d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
			var tree *core.Tree
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				step := first + i%(steps-first+1)
				if step == first {
					tree = core.Create(core.Config{DRAMBudgetOctants: 2048, GCEvery: 1 << 30})
					for s := 1; s < first; s++ {
						sim.StepField(tree, d, s, maxLevel)
						tree.Persist()
						tree.GC()
					}
				}
				sim.StepField(tree, d, step, maxLevel)
				tree.Persist()
				if mode == "marksweep" {
					core.ForceFullGC(tree)
				}
				b.StartTimer()
				tree.GC()
			}
		})
	}
}
