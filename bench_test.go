// Benchmarks, one per table and figure of the paper's evaluation (§5),
// plus ablations of the design decisions DESIGN.md calls out. Each
// benchmark reports modeled nanoseconds or NVBM writes as custom metrics
// alongside wall-clock time, so `go test -bench=. -benchmem` regenerates
// the experiment the corresponding figure is built from.
package pmoctree_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pmoctree"
	"pmoctree/internal/cluster"
	"pmoctree/internal/core"
	"pmoctree/internal/experiments"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/recovery"
	"pmoctree/internal/sim"
	"pmoctree/internal/solver"
)

// benchScale trims the default experiment scale so one benchmark
// iteration stays under ~100ms.
func benchScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.Fig3Steps = 5
	s.WeakRanks = []int{1, 4}
	s.WeakMaxLevel = 4
	s.WeakSteps = 1
	s.StrongRanks = []int{2, 8}
	s.StrongJets = 4
	s.StrongMaxLevel = 4
	s.StrongSteps = 1
	s.Fig10Budgets = []int{64, 512}
	s.Fig10Ranks = 1
	s.Fig10MaxLevel = 4
	s.Fig10Steps = 2
	s.Fig11Levels = []uint8{4}
	s.Fig11Ranks = 1
	s.Fig11Steps = 3
	s.WriteMixSteps = 3
	s.WriteMixMaxLevel = 4
	s.RecoveryCrashStep = 12
	s.RecoveryMaxLevel = 4
	return s
}

// --- Table 2: the memory model itself ---

func BenchmarkTable2DeviceAccess(b *testing.B) {
	for _, kind := range []nvbm.Kind{nvbm.DRAM, nvbm.NVBM} {
		b.Run(kind.String(), func(b *testing.B) {
			dev := nvbm.New(kind, 4096)
			buf := make([]byte, 88)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dev.WriteAt(0, buf)
				dev.ReadAt(0, buf)
			}
			b.ReportMetric(float64(dev.Stats().ModeledNs)/float64(b.N), "modeled-ns/op")
		})
	}
}

// --- §1: write share of meshing accesses ---

func BenchmarkWriteMix(b *testing.B) {
	sc := benchScale()
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = experiments.WriteMix(sc, nil).Avg
	}
	b.ReportMetric(avg*100, "write-%")
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

// --- Figure 5: layout transformation write savings ---

func BenchmarkFig5Layout(b *testing.B) {
	var res experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig5(nil)
	}
	b.ReportMetric(float64(res.ObliviousWrites), "oblivious-writes")
	b.ReportMetric(float64(res.AwareWrites), "aware-writes")
}

// --- Figures 6/7: weak scaling ---

func BenchmarkFig6WeakScaling(b *testing.B) {
	sc := benchScale()
	for _, impl := range []cluster.Impl{cluster.PMOctree, cluster.InCore, cluster.OutOfCore} {
		b.Run(string(impl), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Ranks: sc.WeakRanks[len(sc.WeakRanks)-1], Impl: impl,
					MaxLevel: sc.WeakMaxLevel, Steps: sc.WeakSteps, Seed: 1,
				})
				secs = res.Total.TotalSeconds()
			}
			b.ReportMetric(secs*1000, "modeled-ms")
		})
	}
}

// --- Figure 8: strong scaling of PM-octree ---

func BenchmarkFig8StrongScaling(b *testing.B) {
	sc := benchScale()
	for _, ranks := range sc.StrongRanks {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Ranks: ranks, Jets: sc.StrongJets, Impl: cluster.PMOctree,
					MaxLevel: sc.StrongMaxLevel, Steps: sc.StrongSteps, Seed: 1,
				})
				secs = res.Total.TotalSeconds()
			}
			b.ReportMetric(secs*1000, "modeled-ms")
		})
	}
}

// --- Figure 9: strong-scaling comparison ---

func BenchmarkFig9Comparison(b *testing.B) {
	sc := benchScale()
	ranks := sc.StrongRanks[len(sc.StrongRanks)-1]
	for _, impl := range []cluster.Impl{cluster.PMOctree, cluster.InCore, cluster.OutOfCore} {
		b.Run(string(impl), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Ranks: ranks, Jets: sc.StrongJets, Impl: impl,
					MaxLevel: sc.StrongMaxLevel, Steps: sc.StrongSteps, Seed: 1,
				})
				secs = res.Total.TotalSeconds()
			}
			b.ReportMetric(secs*1000, "modeled-ms")
		})
	}
}

// --- Figure 10: DRAM size for the C0 tree ---

func BenchmarkFig10DRAMSize(b *testing.B) {
	sc := benchScale()
	for _, budget := range sc.Fig10Budgets {
		b.Run(fmt.Sprintf("c0=%d", budget), func(b *testing.B) {
			var secs float64
			var merges int
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Ranks: sc.Fig10Ranks, Impl: cluster.PMOctree,
					MaxLevel: sc.Fig10MaxLevel, Steps: sc.Fig10Steps,
					DRAMBudgetOctants: budget, Seed: 1,
				})
				secs = res.Total.TotalSeconds()
				merges = res.PM.Merges
			}
			b.ReportMetric(secs*1000, "modeled-ms")
			b.ReportMetric(float64(merges), "merges")
		})
	}
}

// --- Figure 11: dynamic transformation on/off ---

func BenchmarkFig11Transform(b *testing.B) {
	sc := benchScale()
	for _, disable := range []bool{true, false} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var writes uint64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Ranks: sc.Fig11Ranks, Impl: cluster.PMOctree,
					MaxLevel: sc.Fig11Levels[0], Steps: sc.Fig11Steps,
					DRAMBudgetOctants: 64, DropletSteps: 30,
					DisableTransform: disable, Seed: 1,
				})
				writes = res.NVBM.Writes
			}
			b.ReportMetric(float64(writes), "nvbm-writes")
		})
	}
}

// --- §5.6: failure recovery ---

func BenchmarkRecovery(b *testing.B) {
	sc := benchScale()
	for _, impl := range []cluster.Impl{cluster.InCore, cluster.PMOctree, cluster.OutOfCore} {
		b.Run(string(impl), func(b *testing.B) {
			var restart float64
			for i := 0; i < b.N; i++ {
				rep, err := recovery.Run(recovery.Config{
					Impl: impl, SameNode: true,
					CrashStep: sc.RecoveryCrashStep, MaxLevel: sc.RecoveryMaxLevel,
				})
				if err != nil {
					b.Fatal(err)
				}
				restart = rep.RestartNs
			}
			b.ReportMetric(restart/1e3, "restart-us")
		})
	}
}

// --- Ablation: handle dereference vs native pointer chase (design 1) ---

func BenchmarkAblationHandleDeref(b *testing.B) {
	b.Run("arena-handle", func(b *testing.B) {
		tree := core.Create(core.Config{})
		tree.RefineWhere(func(morton.Code) bool { return true }, 3)
		code := morton.Root.Child(7).Child(7).Child(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tree.Find(code).IsNil() {
				b.Fatal("lost octant")
			}
		}
	})
	b.Run("native-pointer", func(b *testing.B) {
		tree := pmoctree.NewPointerOctree()
		tree.RefineWhere(func(morton.Code) bool { return true }, 3)
		code := morton.Root.Child(7).Child(7).Child(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tree.Find(code) == nil {
				b.Fatal("lost octant")
			}
		}
	})
}

// --- Ablation: deferred deletion + mark-and-sweep GC (design 3) ---

func BenchmarkAblationGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree := core.Create(core.Config{DRAMBudgetOctants: 1})
		tree.RefineWhere(func(morton.Code) bool { return true }, 3)
		tree.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 1 })
		b.StartTimer()
		tree.GC()
	}
}

// --- Ablation: feature-directed sampling cost (design 5) ---

func BenchmarkAblationSampling(b *testing.B) {
	tree := core.Create(core.Config{DRAMBudgetOctants: 256})
	tree.SetFeatures(func(c morton.Code, _ [core.DataWords]float64) bool {
		x, _, _ := c.Center()
		return x > 0.5
	})
	tree.RefineWhere(func(morton.Code) bool { return true }, 4)
	tree.Persist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Retarget()
	}
}

// --- Ablation: 26-neighbor linear-octree balance vs pointer balance ---

func BenchmarkAblationBalance(b *testing.B) {
	shell := func(c morton.Code) bool {
		x, y, z := c.Center()
		h := c.Extent()
		d := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5)
		lo := 0.3 - h
		if lo < 0 {
			lo = 0
		}
		hi := 0.3 + h
		return d >= lo*lo && d <= hi*hi
	}
	b.Run("pm-octree-faces", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tree := core.Create(core.Config{})
			tree.RefineWhere(shell, 4)
			b.StartTimer()
			tree.Balance()
		}
	})
	b.Run("etree-26-neighbors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tree := pmoctree.NewOutOfCoreMesh(pmoctree.NewNVBM())
			tree.RefineWhere(shell, 4)
			b.StartTimer()
			tree.Balance()
		}
	})
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

// --- Micro: the commit path ---

func BenchmarkPersist(b *testing.B) {
	tree := core.Create(core.Config{})
	d := sim.NewDroplet(sim.DropletConfig{Steps: b.N + 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(tree, d, i+1, 4)
		tree.Persist()
	}
}

// --- Pipelined commit: sync vs async vs group commit ---

// BenchmarkStepPipelined steps the droplet workload to the same
// committed-version count under each persistence mode, with the modeled
// NVBM latency injected as real delay so writeback cost is wall-clock
// visible. ns/op is the whole run (steps + persists + the final Flush, so
// async modes pay for full durability); persist-ns/step is the share the
// stepping thread spends inside Persist — the commit path the pipeline
// exists to shorten. Async must come in below sync on both.
func BenchmarkStepPipelined(b *testing.B) {
	modes := []struct {
		name         string
		depth, group int
	}{
		{"sync", 0, 0},
		{"async-k1", 3, 1},
		{"async-k2", 3, 2},
		{"async-k4", 3, 4},
	}
	const steps = 8
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var persistNs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := nvbm.New(nvbm.NVBM, 0)
				dev.SetDelayInjection(true)
				tree := core.Create(core.Config{
					NVBMDevice:        dev,
					DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
					DRAMBudgetOctants: 2048,
					PipelineDepth:     m.depth,
					GroupCommit:       m.group,
					Seed:              9,
				})
				d := sim.NewDroplet(sim.DropletConfig{Steps: steps + 10})
				tree.SetFeatures(d.Feature(1))
				b.StartTimer()
				for s := 1; s <= steps; s++ {
					sim.Step(tree, d, s, 4)
					tree.SetFeatures(d.Feature(s + 1))
					p0 := time.Now()
					tree.Persist()
					persistNs += time.Since(p0).Nanoseconds()
				}
				tree.Flush()
				b.StopTimer()
				tree.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(persistNs)/float64(b.N*steps), "persist-ns/step")
		})
	}
}

// --- Micro: restore cost vs snapshot reload ---

func BenchmarkRestore(b *testing.B) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tree := core.Create(core.Config{NVBMDevice: nv})
	tree.RefineWhere(func(morton.Code) bool { return true }, 3)
	tree.Persist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Restore(core.Config{NVBMDevice: nv}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: two-version retention vs deferred GC (design 2) ---

func BenchmarkAblationGCDeferral(b *testing.B) {
	for _, every := range []int{1, 4} {
		b.Run(fmt.Sprintf("gc-every-%d", every), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				tree := core.Create(core.Config{GCEvery: every, Seed: 2})
				d := sim.NewDroplet(sim.DropletConfig{Steps: 20})
				for s := 1; s <= 6; s++ {
					sim.Step(tree, d, s, 4)
					tree.Persist()
					if e := tree.VersionStats().ExpansionFactor; e > peak {
						peak = e
					}
				}
			}
			b.ReportMetric(peak, "peak-expansion-x")
		})
	}
}

// --- Micro: multigrid V-cycles vs preconditioned CG ---

func BenchmarkSolverMGvsCG(b *testing.B) {
	mg, err := solver.NewUniformMultigrid(4)
	if err != nil {
		b.Fatal(err)
	}
	s := mg.Fine()
	n := s.N()
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		x, y, z := s.Center(i)
		rhs[i] = x*y + z
	}
	b.Run("multigrid", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			x := make([]float64, n)
			res, err := mg.Solve(rhs, x, solver.Options{Tol: 1e-8})
			if err != nil || !res.Converged {
				b.Fatal(res, err)
			}
			iters = res.Iterations
		}
		b.ReportMetric(float64(iters), "v-cycles")
	})
	b.Run("cg", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			x := make([]float64, n)
			res, err := s.Solve(rhs, x, solver.Options{Tol: 1e-8})
			if err != nil || !res.Converged {
				b.Fatal(res, err)
			}
			iters = res.Iterations
		}
		b.ReportMetric(float64(iters), "iterations")
	})
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
			tree.RefineWhere(benchFastPathRegion, 5) // steady state: full walk, zero splits
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
