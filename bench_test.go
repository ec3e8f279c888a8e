// Benchmarks of the layers of one simulation step (balance,
// refine/coarsen, scatter, persist, the layout pass, leaf sweeps), plus
// the Figure 3 experiment. Each reports modeled device counts or the
// figure's measure as custom metrics alongside wall-clock time. The
// paper's tables and figures are regenerated by cmd/pmbench.
package pmoctree_test

import (
	"math"
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/experiments"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
)

// benchScale trims the default experiment scale so one benchmark
// iteration stays under ~100ms.
func benchScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.Fig3Steps = 5
	return s
}

// --- Figure 3: overlap ratio and memory per 1000 octants ---

func BenchmarkFig3Overlap(b *testing.B) {
	sc := benchScale()
	var last experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(sc, nil)
		last = rows[len(rows)-1]
	}
	b.ReportMetric(last.Overlap*100, "overlap-%")
	b.ReportMetric(last.MemPerK, "B/1k-octants")
}

// --- Micro: the core.balance rung of the benchmark's step ladder ---

// benchCommittedDroplet returns a fresh tree stepped and committed through
// the first `through` steps of d, with its NVBM device.
func benchCommittedDroplet(d *sim.Droplet, maxLevel uint8, through int) (*core.Tree, *nvbm.Device) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tree := core.Create(core.Config{NVBMDevice: nv, DRAMBudgetOctants: 2048})
	for s := 1; s <= through; s++ {
		sim.StepField(tree, d, s, maxLevel)
		tree.Persist()
	}
	return tree, nv
}

// BenchmarkCoreBalance times Tree.Balance alone on the level-6 droplet,
// the in-repo counterpart of the lifecycle benchmark's core.balance_ms:
// each iteration moves the interface one step, refines and coarsens to it
// untimed, and times the Balance that repairs the 2:1 constraint. The rest
// of the step (solve sweeps, Persist) runs untimed, so every iteration
// balances a committed, C0-evicted mesh as a real step does. Iterations
// march through steps 21-80 of 80 and start over on a fresh tree, so the
// per-op numbers are the mean over that window whenever b.N is a multiple
// of 60 (-benchtime 60x).
func BenchmarkCoreBalance(b *testing.B) {
	const maxLevel, steps, first = 6, 80, 21
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	var (
		nv      *nvbm.Device
		tree    *core.Tree
		reads   uint64
		refines int
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step := first + i%(steps-first+1)
		if step == first {
			tree, nv = benchCommittedDroplet(d, maxLevel, first-1)
		}
		tree.RefineWhere(d.RefinePred(step), maxLevel)
		tree.CoarsenWhere(d.CoarsenPred(step))
		before := nv.Stats().Reads
		b.StartTimer()
		refines += tree.Balance()
		b.StopTimer()
		reads += nv.Stats().Reads - before
		for it := 0; it < sim.SolverSweeps; it++ {
			tree.UpdateLeaves(d.Solve(step))
		}
		tree.Persist()
		b.StartTimer()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "nvbm-reads/op")
	b.ReportMetric(float64(refines)/float64(b.N), "refines/op")
}

// BenchmarkCoreRefineCoarsen times one amr-style step's Tree.RefineWhere
// and Tree.CoarsenWhere on the level-7 droplet behind a 2 048-octant C0,
// the in-repo counterpart of the lifecycle benchmark's core.refine_ms and
// core.coarsen_ms: each iteration moves the interface one step and times
// the refinement and coarsening to it. Balance, the solve sweeps (through
// the leaf index, as the tiled step does) and Persist run untimed, so
// every iteration adapts a committed, C0-evicted mesh as a real step does.
// Same step window as BenchmarkCoreBalance (-benchtime 60x).
func BenchmarkCoreRefineCoarsen(b *testing.B) {
	const maxLevel, steps, first = 7, 80, 21
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	var (
		nv                *nvbm.Device
		tree              *core.Tree
		reads             uint64
		splits, collapses int
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step := first + i%(steps-first+1)
		if step == first {
			tree, nv = benchCommittedDroplet(d, maxLevel, first-1)
		}
		before := nv.Stats().Reads
		b.StartTimer()
		splits += tree.RefineWhere(d.RefinePred(step), maxLevel)
		collapses += tree.CoarsenWhere(d.CoarsenPred(step))
		b.StopTimer()
		reads += nv.Stats().Reads - before
		tree.Balance()
		for it := 0; it < sim.SolverSweeps; it++ {
			tree.UpdateLeavesIndexed(d.Solve(step))
		}
		tree.Persist()
		b.StartTimer()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "nvbm-reads/op")
	b.ReportMetric(float64(splits)/float64(b.N), "splits/op")
	b.ReportMetric(float64(collapses)/float64(b.N), "collapses/op")
}

// BenchmarkCoreScatter times the leaf-payload batch writer alone
// (Tree.ScatterLeafTiles) on the level-6 droplet, the in-repo counterpart
// of the lifecycle benchmark's core.scatter_ms: each iteration moves the
// interface one step (refine, coarsen, balance, untimed), rewrites ~70 % of
// the leaves — or all of them — in the leaf index LeafTiles lends, and times the
// scatter that stores them copy-on-write; the Persist that follows is
// untimed, so every iteration scatters over a committed, C0-evicted mesh as
// a real step does. Same step window as BenchmarkCoreBalance (-benchtime
// 60x).
func BenchmarkCoreScatter(b *testing.B) {
	const maxLevel, steps, first = 6, 80, 21
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	for _, bc := range []struct {
		name  string
		dirty func(i int) bool
	}{
		{"dirty70", func(i int) bool { return i%10 < 7 }},
		{"all", func(int) bool { return true }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var (
				nv            *nvbm.Device
				tree          *core.Tree
				reads, writes uint64
				cells         int
			)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				step := first + i%(steps-first+1)
				if step == first {
					tree, nv = benchCommittedDroplet(d, maxLevel, first-1)
				}
				tree.RefineWhere(d.RefinePred(step), maxLevel)
				tree.CoarsenWhere(d.CoarsenPred(step))
				tree.Balance()
				st := tree.LeafTiles()
				for c := 0; c < st.N(); c++ {
					if bc.dirty(c) {
						st.F[1][c] += 0.5
						st.MarkDirty(c)
					}
				}
				before := nv.Stats()
				b.StartTimer()
				cells += tree.ScatterLeafTiles(st)
				b.StopTimer()
				after := nv.Stats()
				reads += after.Reads - before.Reads
				writes += after.Writes - before.Writes
				tree.Persist()
				b.StartTimer()
			}
			b.ReportMetric(float64(reads)/float64(b.N), "nvbm-reads/op")
			b.ReportMetric(float64(writes)/float64(b.N), "nvbm-writes/op")
			b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
		})
	}
}

// BenchmarkCorePersist times Tree.Persist alone on the level-7 droplet
// behind a 2 048-octant C0, the in-repo counterpart of the lifecycle
// benchmark's core.persist_ms: each iteration steps the mesh untimed
// (refine, coarsen, balance, the solve sweeps) and times the Persist that
// merges the step's C0 octants into NVBM, commits, collects and
// retargets. Same step window as BenchmarkCoreBalance (-benchtime 60x).
func BenchmarkCorePersist(b *testing.B) {
	const maxLevel, steps, first = 7, 80, 21
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	var (
		nv            *nvbm.Device
		tree          *core.Tree
		reads, writes uint64
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step := first + i%(steps-first+1)
		if step == first {
			tree, nv = benchCommittedDroplet(d, maxLevel, first-1)
		}
		sim.StepField(tree, d, step, maxLevel)
		before := nv.Stats()
		b.StartTimer()
		tree.Persist()
		b.StopTimer()
		after := nv.Stats()
		reads += after.Reads - before.Reads
		writes += after.Writes - before.Writes
		b.StartTimer()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "nvbm-reads/op")
	b.ReportMetric(float64(writes)/float64(b.N), "nvbm-writes/op")
}

// BenchmarkCoreTransform times the layout transformation pass alone
// (Tree.Retarget: candidate collection, feature evaluation, hot-set
// selection) on the level-7 droplet, the pass every Persist ends with: each
// iteration steps and persists the mesh untimed, installs the next step's
// feature, and times one Retarget over the committed, C0-evicted tree.
// Iterations march through steps 21-80 of 80 and start over on a fresh
// tree, so the per-op numbers are the mean over that window whenever b.N
// is a multiple of 60 (-benchtime 60x).
func BenchmarkCoreTransform(b *testing.B) {
	const maxLevel, steps, first = 7, 80, 21
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	var tree *core.Tree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step := first + i%(steps-first+1)
		if step == first {
			tree, _ = benchCommittedDroplet(d, maxLevel, first-1)
		}
		sim.StepField(tree, d, step, maxLevel)
		tree.SetFeatures(d.Feature(step + 1))
		tree.Persist()
		b.StartTimer()
		tree.Retarget()
	}
}

// --- Octant fast path: repeated leaf sweeps + refine pass (walk vs index) ---

// benchSink keeps the leaf-sweep reductions below observable.
var benchSink float64

// benchFastPathRegion resolves a spherical interface, like the droplet
// surface: refine every octant whose box straddles the radius-0.3 shell.
func benchFastPathRegion(c morton.Code) bool {
	x, y, z := c.Center()
	d := math.Sqrt((x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5))
	return math.Abs(d-0.3) < c.Extent()
}

// BenchmarkLeafWalkRefine measures the walk-heavy inner loop of a
// simulation step: one refinement pass over the committed mesh followed
// by six full leaf sweeps (predicate evaluation, solve, advect and
// output passes all iterate the leaves), with the tree resident in NVBM
// behind a small C0 budget. "walk" pays a charged decode walk per sweep —
// the pre-fast-path behavior; "indexed" sweeps a field slice of the
// Z-order leaf index, rebuilt at most once per mutation. The leaf sums agree
// bit-for-bit; only the traversal machinery differs.
func BenchmarkLeafWalkRefine(b *testing.B) {
	const sweeps = 6
	build := func() *core.Tree {
		tree := core.Create(core.Config{DRAMBudgetOctants: 64})
		tree.RefineWhere(benchFastPathRegion, 5)
		tree.Balance()
		tree.Persist()
		return tree
	}
	b.Run("walk", func(b *testing.B) {
		tree := build()
		var sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.RefineWhere(benchFastPathRegion, 5) // steady state: decided on the index, zero splits, no octant read
			for s := 0; s < sweeps; s++ {
				tree.ForEachLeaf(func(_ morton.Code, data [core.DataWords]float64) bool {
					sum += data[0]
					return true
				})
			}
		}
		benchSink = sum
		b.ReportMetric(float64(tree.LeafCount()), "leaves")
	})
	b.Run("indexed", func(b *testing.B) {
		tree := build()
		var sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.RefineWhere(benchFastPathRegion, 5)
			for s := 0; s < sweeps; s++ {
				for _, v := range tree.LeafTiles().F[0] {
					sum += v
				}
			}
		}
		benchSink = sum
		b.ReportMetric(float64(tree.LeafCount()), "leaves")
	})
}
