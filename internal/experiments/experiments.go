// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) at configurable scale. Each Fig/Table function runs the
// corresponding experiment and returns structured rows; report.go formats
// them as the text tables cmd/pmbench prints.
//
// Absolute numbers differ from the paper (Titan is a supercomputer; this
// is an emulated substrate), but each experiment preserves the paper's
// shape: which implementation wins, by roughly what factor, and how the
// trend moves with the swept parameter. DESIGN.md lists the expected
// shape per experiment.
package experiments

import (
	"pmoctree/internal/cluster"
	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/recovery"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

// Scale selects experiment sizes. DefaultScale finishes in seconds for
// tests and quick runs; PaperScale approaches the paper's configuration
// shape (hundreds of ranks, deeper meshes) and takes minutes.
type Scale struct {
	// Workers is the per-rank worker-pool width handed to the cluster
	// scheduler (0 = GOMAXPROCS). Results are worker-count-invariant.
	Workers int

	Fig3Steps    int
	Fig3MaxLevel uint8

	WeakRanks    []int
	WeakMaxLevel uint8
	WeakSteps    int

	StrongRanks    []int
	StrongJets     int
	StrongMaxLevel uint8
	StrongSteps    int

	Fig10Budgets  []int
	Fig10Ranks    int
	Fig10MaxLevel uint8
	Fig10Steps    int

	Fig11Levels []uint8
	Fig11Ranks  int
	Fig11Steps  int

	WriteMixSteps    int
	WriteMixMaxLevel uint8

	RecoveryCrashStep int
	RecoveryMaxLevel  uint8
}

// DefaultScale returns the fast configuration.
func DefaultScale() Scale {
	return Scale{
		Fig3Steps:    20,
		Fig3MaxLevel: 5,

		WeakRanks:    []int{1, 2, 4, 8},
		WeakMaxLevel: 5,
		WeakSteps:    2,

		StrongRanks:    []int{2, 4, 8, 16},
		StrongJets:     8,
		StrongMaxLevel: 5,
		StrongSteps:    2,

		Fig10Budgets:  []int{64, 128, 256, 512, 1024},
		Fig10Ranks:    2,
		Fig10MaxLevel: 5,
		Fig10Steps:    3,

		Fig11Levels: []uint8{3, 4, 5},
		Fig11Ranks:  2,
		Fig11Steps:  3,

		WriteMixSteps:    10,
		WriteMixMaxLevel: 5,

		RecoveryCrashStep: 15,
		RecoveryMaxLevel:  5,
	}
}

// PaperScale returns the large configuration, tracking the paper's sweeps
// at reduced absolute size (1000 simulated ranks is feasible; billion-
// element meshes are not on one host).
func PaperScale() Scale {
	s := DefaultScale()
	s.Fig3Steps = 150
	s.WeakRanks = []int{1, 8, 27, 64, 125, 216}
	s.WeakMaxLevel = 6
	s.WeakSteps = 3
	s.StrongRanks = []int{8, 16, 32, 64}
	s.StrongJets = 16
	s.StrongMaxLevel = 6
	s.StrongSteps = 3
	s.Fig10Budgets = []int{128, 256, 512, 1024, 2048, 4096}
	s.Fig10Ranks = 4
	s.Fig10Steps = 5
	s.Fig11Levels = []uint8{4, 5, 6}
	s.Fig11Ranks = 4
	s.Fig11Steps = 6
	return s
}

// TitanScale pushes the weak-scaling sweep to the paper's 1000-processor
// point (1000 simulated ranks, one jet each). Expect roughly an hour of
// wall time for the full comparison; `pmbench -titan fig7` runs PM-octree
// alone in minutes.
func TitanScale() Scale {
	s := PaperScale()
	s.WeakRanks = []int{1, 8, 64, 216, 512, 1000}
	s.WeakSteps = 2
	return s
}

// Table2Row is one line of the DRAM/NVBM characteristics table.
type Table2Row struct {
	Metric string
	DRAM   string
	NVBM   string
}

// Table2 returns the active memory model (Table 2 of the paper).
func Table2() []Table2Row {
	return []Table2Row{
		{"Read Latency (ns)", "60", "100"},
		{"Write Latency (ns)", "60", "150"},
		{"Endurance (writes/bit)", "> 1e16", "1e6 - 1e8"},
	}
}

// WriteMixResult reproduces the §1 statistic: the fraction of memory
// accesses that are writes during meshing.
type WriteMixResult struct {
	PerStep []float64
	Avg     float64
	Max     float64
}

// WriteMix runs the droplet workload on an all-NVBM PM-octree and
// measures the write fraction of the octree meshing operations — refine,
// coarsen and balance — per step ("octree meshing operations can be
// write-intensive", §1). The solve and persist phases run to advance the
// simulation but are not part of the measured mix. A non-nil obs records
// one span per routine with NVBM deltas.
func WriteMix(sc Scale, obs *telemetry.Observer) WriteMixResult {
	dev := nvbm.New(nvbm.NVBM, 0)
	tree := core.Create(core.Config{NVBMDevice: dev, DRAMBudgetOctants: 1})
	tree.SetTracer(obs.TracerFor(0, telemetry.DeviceProbe(dev)))
	// A fast workload clock makes the interface move every step, so the
	// mesh actually adapts in every measured step.
	d := sim.NewDroplet(sim.DropletConfig{Steps: 3 * sc.WriteMixSteps})
	var res WriteMixResult
	for s := 1; s <= sc.WriteMixSteps; s++ {
		before := dev.Stats()
		tree.RefineWhere(d.RefinePred(s), sc.WriteMixMaxLevel)
		tree.CoarsenWhere(d.CoarsenPred(s))
		delta := dev.Stats().Sub(before)
		tree.Balance()
		solve := d.Solve(s)
		for it := 0; it < sim.SolverSweeps; it++ {
			tree.UpdateLeaves(solve)
		}
		tree.Persist()
		f := delta.WriteFraction()
		res.PerStep = append(res.PerStep, f)
		res.Avg += f
		if f > res.Max {
			res.Max = f
		}
	}
	res.Avg /= float64(len(res.PerStep))
	return res
}

// Fig3Row is one time step of the overlap/memory experiment.
type Fig3Row struct {
	Step      int
	Octants   int
	Overlap   float64 // shared / current octants
	MemPerK   float64 // live bytes per 1000 octants
	Expansion float64 // live bytes / single-copy bytes
}

// Fig3 runs the droplet simulation and measures, at the end of each step
// (before persisting), the overlap ratio between V(i) and V(i-1) and the
// memory usage per 1000 octants.
//
// Every step is assembled into one telemetry.StepRecord — per-phase spans
// when obs carries a tracer, plus authoritative device-counter and
// op-counter deltas — and the returned table rows are projections of
// those records, so the text table, the JSONL timeline and the Chrome
// trace all come from a single measurement path. A nil obs skips the
// recording but runs the same path.
func Fig3(sc Scale, obs *telemetry.Observer) []Fig3Row {
	nv := nvbm.New(nvbm.NVBM, 0)
	dr := nvbm.New(nvbm.DRAM, 0)
	tree := core.Create(core.Config{DRAMBudgetOctants: 512, NVBMDevice: nv, DRAMDevice: dr})
	tree.SetTracer(obs.TracerFor(0, telemetry.DeviceProbe(nv), telemetry.DeviceProbe(dr)))
	if obs != nil {
		tree.RegisterMetrics(obs.Metrics, "fig3")
	}
	d := sim.NewDroplet(sim.DropletConfig{Steps: sc.Fig3Steps + 10})
	var rows []Fig3Row
	prevNV := nv.Stats()
	prevDR := dr.Stats()
	prevOps := tree.Stats()
	for s := 1; s <= sc.Fig3Steps; s++ {
		mark := obs.Mark()
		sim.Step(tree, d, s, sc.Fig3MaxLevel)
		vs := tree.VersionStats()
		tree.SetFeatures(d.Feature(s + 1))
		tree.Persist()

		// Phases come from the step's spans; the step-level totals come
		// from the device and op counters, which also cover work outside
		// any span (and are available with telemetry off).
		rec := telemetry.StepFromEvents(s, obs.EventsFrom(mark))
		ops := tree.Stats()
		nvNow, drNow := nv.Stats(), dr.Stats()
		dnv := nvNow.Sub(prevNV)
		rec.Octants = vs.CurOctants
		rec.Overlap = vs.OverlapRatio
		rec.Expansion = vs.ExpansionFactor
		rec.ModeledNs = dnv.ModeledNs + drNow.Sub(prevDR).ModeledNs
		rec.NVBMReads = dnv.Reads
		rec.NVBMWrites = dnv.Writes
		rec.Merges = uint64(ops.Merges - prevOps.Merges)
		rec.GCFreed = uint64(ops.GCFreed - prevOps.GCFreed)
		rec.Copies = uint64(ops.Copies - prevOps.Copies)
		prevNV, prevDR, prevOps = nvNow, drNow, ops
		obs.RecordStep(rec)

		rows = append(rows, Fig3Row{
			Step:      rec.Step,
			Octants:   rec.Octants,
			Overlap:   rec.Overlap,
			MemPerK:   vs.MemoryPerThousandOctants(),
			Expansion: rec.Expansion,
		})
	}
	return rows
}

// Fig5Result compares NVBM writes served under the locality-oblivious and
// locality-aware layouts for the same refinement pass (Figure 5: the
// oblivious layout serves ~89% more writes).
type Fig5Result struct {
	ObliviousWrites uint64
	AwareWrites     uint64
	ExtraFraction   float64 // (oblivious-aware)/aware
}

// Fig5 builds identical meshes under both layouts and replays a write
// burst concentrated in a hot region that Z-order places last. In the
// trace the oblivious run appears as rank 0 and the aware run as rank 1.
func Fig5(obs *telemetry.Observer) Fig5Result {
	// The hot region spans two level-1 subtrees; the DRAM budget holds
	// only one, so even the aware layout serves some NVBM writes — the
	// regime of Figure 5, where the oblivious layout serves ~1.9x more.
	hot := func(c morton.Code) bool {
		x, _, z := c.Center()
		return x > 0.5 && z > 0.5
	}
	run := func(oblivious bool) uint64 {
		tree := core.Create(core.Config{
			DRAMBudgetOctants: 100,
			DisableTransform:  oblivious,
			Seed:              11,
		})
		rank := 0
		if !oblivious {
			rank = 1
		}
		tree.SetTracer(obs.TracerFor(rank, telemetry.DeviceProbe(tree.NVBMDevice())))
		tree.SetFeatures(func(c morton.Code) bool { return hot(c) })
		tree.RefineWhere(func(morton.Code) bool { return true }, 3)
		tree.Persist()
		before := tree.NVBMDevice().Stats()
		for round := 0; round < 4; round++ {
			tree.UpdateLeaves(func(c morton.Code, d *[core.DataWords]float64) bool {
				if hot(c) {
					d[0] += 1
					return true
				}
				return false
			})
		}
		return tree.NVBMDevice().Stats().Sub(before).Writes
	}
	res := Fig5Result{ObliviousWrites: run(true), AwareWrites: run(false)}
	if res.AwareWrites > 0 {
		res.ExtraFraction = float64(res.ObliviousWrites-res.AwareWrites) / float64(res.AwareWrites)
	}
	return res
}

// ScalePoint is one x-axis point of a scaling figure.
type ScalePoint struct {
	Ranks    int
	Elements int
	// Seconds of modeled execution per implementation.
	Seconds map[cluster.Impl]float64
	// Breakdown of the PM-octree run by routine (Figures 7, 8b).
	Breakdown cluster.RoutineTimes
}

// Fig6 runs the weak-scaling comparison (Figure 6): the problem grows
// with the rank count (one jet per rank), and all three implementations
// execute the same steps.
func Fig6(sc Scale, obs *telemetry.Observer) []ScalePoint { return weakScaling(sc, true, obs) }

// Fig7Points runs the weak-scaling sweep for PM-octree only (the routine
// breakdown of Figure 7), skipping the expensive baselines.
func Fig7Points(sc Scale, obs *telemetry.Observer) []ScalePoint { return weakScaling(sc, false, obs) }

// scalingObs attaches the observer to the PM-octree run only: the
// baselines share rank ids, and interleaving three implementations on the
// same trace threads would make the timeline unreadable.
func scalingObs(obs *telemetry.Observer, impl cluster.Impl) *telemetry.Observer {
	if impl != cluster.PMOctree {
		return nil
	}
	return obs
}

func weakScaling(sc Scale, allImpls bool, obs *telemetry.Observer) []ScalePoint {
	impls := []cluster.Impl{cluster.PMOctree}
	if allImpls {
		impls = append(impls, cluster.InCore, cluster.OutOfCore)
	}
	var points []ScalePoint
	for _, p := range sc.WeakRanks {
		pt := ScalePoint{Ranks: p, Seconds: map[cluster.Impl]float64{}}
		for _, impl := range impls {
			res := cluster.Run(cluster.Config{
				Ranks:    p,
				Workers:  sc.Workers,
				Impl:     impl,
				MaxLevel: sc.WeakMaxLevel,
				Steps:    sc.WeakSteps,
				Seed:     1,
				Obs:      scalingObs(obs, impl),
			})
			pt.Seconds[impl] = res.Total.TotalSeconds()
			if impl == cluster.PMOctree {
				pt.Elements = res.Elements
				pt.Breakdown = res.Total
			}
		}
		points = append(points, pt)
	}
	return points
}

// Fig8 runs the strong-scaling study (Figure 8): fixed problem size,
// growing rank count, PM-octree only, with routine breakdown.
func Fig8(sc Scale, obs *telemetry.Observer) []ScalePoint {
	var points []ScalePoint
	for _, p := range sc.StrongRanks {
		res := cluster.Run(cluster.Config{
			Ranks:    p,
			Workers:  sc.Workers,
			Jets:     sc.StrongJets,
			Impl:     cluster.PMOctree,
			MaxLevel: sc.StrongMaxLevel,
			Steps:    sc.StrongSteps,
			Seed:     1,
			Obs:      obs,
		})
		points = append(points, ScalePoint{
			Ranks:     p,
			Elements:  res.Elements,
			Seconds:   map[cluster.Impl]float64{cluster.PMOctree: res.Total.TotalSeconds()},
			Breakdown: res.Total,
		})
	}
	return points
}

// Fig9 runs the strong-scaling comparison of all three implementations
// (Figure 9).
func Fig9(sc Scale, obs *telemetry.Observer) []ScalePoint {
	var points []ScalePoint
	for _, p := range sc.StrongRanks {
		pt := ScalePoint{Ranks: p, Seconds: map[cluster.Impl]float64{}}
		for _, impl := range []cluster.Impl{cluster.PMOctree, cluster.InCore, cluster.OutOfCore} {
			res := cluster.Run(cluster.Config{
				Ranks:    p,
				Workers:  sc.Workers,
				Jets:     sc.StrongJets,
				Impl:     impl,
				MaxLevel: sc.StrongMaxLevel,
				Steps:    sc.StrongSteps,
				Seed:     1,
				Obs:      scalingObs(obs, impl),
			})
			pt.Seconds[impl] = res.Total.TotalSeconds()
			if impl == cluster.PMOctree {
				pt.Elements = res.Elements
				pt.Breakdown = res.Total
			}
		}
		points = append(points, pt)
	}
	return points
}

// Fig10Row is one DRAM-size configuration (Figure 10).
type Fig10Row struct {
	BudgetOctants int
	Seconds       float64
	Merges        int
	Elements      int
}

// Fig10 sweeps the DRAM budget configured for the C0 tree and reports
// execution time and C0/C1 merge counts, with the in-core and out-of-core
// times as horizontal reference lines.
func Fig10(sc Scale, obs *telemetry.Observer) (rows []Fig10Row, inCoreSecs, outOfCoreSecs float64) {
	for _, b := range sc.Fig10Budgets {
		res := cluster.Run(cluster.Config{
			Ranks:             sc.Fig10Ranks,
			Workers:           sc.Workers,
			Impl:              cluster.PMOctree,
			MaxLevel:          sc.Fig10MaxLevel,
			Steps:             sc.Fig10Steps,
			DRAMBudgetOctants: b,
			Seed:              1,
			Obs:               obs,
		})
		rows = append(rows, Fig10Row{
			BudgetOctants: b,
			Seconds:       res.Total.TotalSeconds(),
			Merges:        res.PM.Merges,
			Elements:      res.Elements,
		})
	}
	ic := cluster.Run(cluster.Config{Ranks: sc.Fig10Ranks, Workers: sc.Workers, Impl: cluster.InCore, MaxLevel: sc.Fig10MaxLevel, Steps: sc.Fig10Steps, Seed: 1})
	oc := cluster.Run(cluster.Config{Ranks: sc.Fig10Ranks, Workers: sc.Workers, Impl: cluster.OutOfCore, MaxLevel: sc.Fig10MaxLevel, Steps: sc.Fig10Steps, Seed: 1})
	return rows, ic.Total.TotalSeconds(), oc.Total.TotalSeconds()
}

// Fig11Row compares runs with and without dynamic transformation at one
// mesh size (Figure 11).
type Fig11Row struct {
	MaxLevel       uint8
	Elements       int
	SecondsOff     float64
	SecondsOn      float64
	WritesOff      uint64
	WritesOn       uint64
	TimeReduction  float64 // 1 - on/off
	WriteReduction float64 // 1 - on/off
}

// Fig11 sweeps mesh size (via refinement depth) and toggles the dynamic
// transformation of the PM-octree layout. Only the transformation-on run
// feeds the observer: the off run is its control.
func Fig11(sc Scale, obs *telemetry.Observer) []Fig11Row {
	var rows []Fig11Row
	for _, ml := range sc.Fig11Levels {
		// Probe the mesh size, then give C0 about a quarter of it per
		// rank — the regime where layout choice matters (with more DRAM
		// than mesh, any layout fits; Figure 11's small-mesh points).
		// The short workload clock (DropletSteps 30) makes the interface
		// move appreciably per step, so a frozen layout goes stale — the
		// situation dynamic transformation exists for.
		const workloadClock = 30
		probe := cluster.Run(cluster.Config{
			Ranks: sc.Fig11Ranks, Workers: sc.Workers, Impl: cluster.PMOctree, MaxLevel: ml,
			Steps: 1, DRAMBudgetOctants: 1 << 20, Seed: 1,
			DropletSteps: workloadClock,
		})
		budget := probe.Elements / (4 * sc.Fig11Ranks)
		if budget < 32 {
			budget = 32
		}
		off := cluster.Run(cluster.Config{
			Ranks: sc.Fig11Ranks, Workers: sc.Workers, Impl: cluster.PMOctree, MaxLevel: ml,
			Steps: sc.Fig11Steps, DRAMBudgetOctants: budget,
			DropletSteps:     workloadClock,
			DisableTransform: true, Seed: 1,
		})
		on := cluster.Run(cluster.Config{
			Ranks: sc.Fig11Ranks, Workers: sc.Workers, Impl: cluster.PMOctree, MaxLevel: ml,
			Steps: sc.Fig11Steps, DRAMBudgetOctants: budget,
			DropletSteps:     workloadClock,
			DisableTransform: false, Seed: 1,
			Obs: obs,
		})
		row := Fig11Row{
			MaxLevel:   ml,
			Elements:   on.Elements,
			SecondsOff: off.Total.TotalSeconds(),
			SecondsOn:  on.Total.TotalSeconds(),
			WritesOff:  off.NVBM.Writes,
			WritesOn:   on.NVBM.Writes,
		}
		if row.SecondsOff > 0 {
			row.TimeReduction = 1 - row.SecondsOn/row.SecondsOff
		}
		if row.WritesOff > 0 {
			row.WriteReduction = 1 - float64(row.WritesOn)/float64(row.WritesOff)
		}
		rows = append(rows, row)
	}
	return rows
}

// RecoveryRow is one line of the §5.6 restart-time comparison.
type RecoveryRow struct {
	Impl     cluster.Impl
	SameNode bool
	Report   recovery.Report
}

// Recovery runs all five §5.6 scenarios.
func Recovery(sc Scale, obs *telemetry.Observer) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, tc := range []struct {
		impl cluster.Impl
		same bool
	}{
		{cluster.InCore, true},
		{cluster.PMOctree, true},
		{cluster.OutOfCore, true},
		{cluster.InCore, false},
		{cluster.PMOctree, false},
		{cluster.OutOfCore, false},
	} {
		rep, err := recovery.Run(recovery.Config{
			Impl:      tc.impl,
			SameNode:  tc.same,
			CrashStep: sc.RecoveryCrashStep,
			MaxLevel:  sc.RecoveryMaxLevel,
			Obs:       obs,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, RecoveryRow{Impl: tc.impl, SameNode: tc.same, Report: rep})
	}
	return rows, nil
}
