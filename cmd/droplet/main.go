// Command droplet runs one of the paper's motivating workloads — droplet
// ejection in inkjet printing (§5.1, the default), droplet impact on a
// solid surface, or rapid boiling flow — on a PM-octree, persisting every
// step and reporting per-step meshing statistics, version overlap, and
// memory behavior. With -image, the persistent region is written to a
// device image file at the end, from which cmd/meshstat or a later run
// can restore.
//
// -trace and -metrics export the run's telemetry (Chrome trace_event
// timeline and per-step JSONL records); -debug serves expvar, the metrics
// registry and pprof over HTTP while the run executes.
//
// -chaos <seed> runs the fault-injection soak instead: the workload steps
// under seeded torn power cuts, bit-rot, wear-out, and lossy replica
// shipping, recovering every crash through scrub, multi-version fallback,
// and replica failover, and exits nonzero if any recovery lands on a
// state that was never committed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"pmoctree"
	"pmoctree/internal/fault"
	"pmoctree/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is droplet on args, writing the report to stdout and diagnostics to
// stderr; it returns the process exit code: 0, 1 on a failed run or write,
// 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("droplet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		steps       = fs.Int("steps", 30, "time steps to simulate")
		maxLevel    = fs.Int("maxlevel", 5, "maximum refinement level")
		jets        = fs.Int("jets", 1, "number of nozzles (printhead width; ejection only)")
		workload    = fs.String("workload", "ejection", "scenario: ejection | impact | boiling")
		budget      = fs.Int("c0", 2048, "DRAM budget for the C0 tree, in octants")
		image       = fs.String("image", "", "write the final NVBM region image to this file")
		vtk         = fs.String("vtk", "", "write the final mesh as a legacy VTK unstructured grid")
		autotune    = fs.Bool("autotune", false, "let the C0 budget adapt to merge pressure")
		quiet       = fs.Bool("q", false, "suppress the per-step table")
		tracePath   = fs.String("trace", "", "write a Chrome trace_event timeline to `file`")
		metricsPath = fs.String("metrics", "", "write per-step JSONL records to `file`")
		debugAddr   = fs.String("debug", "", "serve expvar/metrics/pprof on `addr` (e.g. localhost:6060)")
		workers     = fs.Int("workers", 0, "worker-pool width for predicate/solve evaluation (0 = GOMAXPROCS); results are identical for any value")
		bulkInit    = fs.Bool("bulkinit", false, "build the first step's mesh by bulk construction from Morton codes instead of incremental refinement (bit-identical result)")
		chaosSeed   = fs.Int64("chaos", 0, "run the chaos soak with this fault-injection `seed` (nonzero) instead of a clean run")
		retain      = fs.Int("retain", 0, "extra committed versions to retain in the fallback ring (0..2); gives cmd/pmserve -history older versions to serve")
		chaosQuery  = fs.Int("chaosreaders", 0, "with -chaos: run this many concurrent MVCC snapshot readers against pinned versions during the soak")
		chaosFlight = fs.String("chaosflight", "", "with -chaos: write the soak's flight-recorder ring (commits, crashes, restores, scrubs) as JSONL to `file`")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *retain < 0 || *retain > 2 {
		fmt.Fprintf(stderr, "droplet: -retain %d outside 0..2\n", *retain)
		return 2
	}

	if *chaosSeed != 0 {
		var qs fault.QueryStats
		var fr *telemetry.FlightRecorder
		if *chaosFlight != "" {
			fr = telemetry.NewFlightRecorder(4096)
		}
		rep, err := fault.Run(fault.ChaosConfig{
			Seed:         *chaosSeed,
			Steps:        *steps,
			MaxLevel:     uint8(*maxLevel),
			DRAMBudget:   *budget,
			QueryReaders: *chaosQuery,
			QueryStats:   &qs,
			Recorder:     fr,
		})
		if *chaosFlight != "" {
			if derr := fr.DumpFile(*chaosFlight); derr != nil {
				fmt.Fprintf(stderr, "droplet: flight dump: %v\n", derr)
			}
		}
		fmt.Fprint(stdout, rep)
		if *chaosQuery > 0 {
			fmt.Fprintf(stdout, "  queries: readers=%d batches=%d served=%d aborted=%d mismatches=%d catalog_rebinds=%d\n",
				qs.Readers, qs.Batches, qs.Served, qs.Aborted, qs.Mismatches, qs.Generations)
		}
		if err != nil {
			fmt.Fprintf(stderr, "droplet: chaos run FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "chaos run passed: every crash recovered to a committed version")
		return 0
	}

	pool := pmoctree.NewWorkerPool(*workers)

	nv := pmoctree.NewNVBM()
	tree := pmoctree.Create(pmoctree.Config{
		NVBMDevice:        nv,
		DRAMBudgetOctants: *budget,
		RetainVersions:    *retain,
	})

	var obs *telemetry.Observer
	if *tracePath != "" || *metricsPath != "" || *debugAddr != "" {
		obs = telemetry.NewObserver()
		tree.SetTracer(obs.TracerFor(0, telemetry.DeviceProbe(nv)))
		tree.RegisterMetrics(obs.Metrics, "droplet")
		pool.Instrument(obs.Metrics, "droplet.pool")
		if *debugAddr != "" {
			dbg, err := telemetry.StartDebugServer(*debugAddr, obs.Metrics)
			if err != nil {
				fmt.Fprintf(stderr, "droplet: %v\n", err)
				return 1
			}
			defer dbg.Close()
			fmt.Fprintf(stderr, "debug server on http://%s/debug/metrics (also /metrics, /debug/vars, /debug/pprof/)\n", dbg.Addr())
		}
	}
	var d pmoctree.Workload
	switch *workload {
	case "ejection":
		d = pmoctree.NewDroplet(pmoctree.DropletConfig{Steps: *steps + 10, Jets: *jets})
	case "impact":
		d = pmoctree.NewDropImpact(pmoctree.ImpactConfig{Steps: *steps + 10})
	case "boiling":
		d = pmoctree.NewBoiling(pmoctree.BoilingConfig{Steps: *steps + 10, Seed: 42})
	default:
		fmt.Fprintf(stderr, "droplet: unknown workload %q\n", *workload)
		return 2
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	if !*quiet {
		fmt.Fprintln(w, "step\telements\trefined\tcoarsened\tbalanced\tsolved\toverlap\tNVBM writes")
	}
	var lastWrites uint64
	var tuner *pmoctree.AutoTuner
	if *autotune {
		tuner = pmoctree.NewAutoTuner(64, 1<<20)
	}
	tree.SetFeatures(pmoctree.WorkloadFeature(d, 1))
	prevNV := nv.Stats()
	prevOps := tree.Stats()
	for s := 1; s <= *steps; s++ {
		mark := obs.Mark()
		var sc pmoctree.StepCounts
		if ok := false; *bulkInit && s == 1 {
			if sc, ok = pmoctree.ConstructInitialStep(tree, d, s, uint8(*maxLevel), pool); !ok {
				sc = pmoctree.StepPool(tree, d, s, uint8(*maxLevel), pool)
			}
		} else {
			sc = pmoctree.StepPool(tree, d, s, uint8(*maxLevel), pool)
		}
		vs := tree.VersionStats()
		writes := nv.Stats().Writes
		if !*quiet {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%d\n",
				s, sc.Leaves, sc.Refined, sc.Coarsened, sc.Balanced, sc.Solved,
				vs.OverlapRatio*100, writes-lastWrites)
		}
		lastWrites = writes
		tree.SetFeatures(pmoctree.WorkloadFeature(d, s+1))
		tree.Persist()
		if obs != nil {
			rec := telemetry.StepFromEvents(s, obs.EventsFrom(mark))
			ops := tree.Stats()
			nvNow := nv.Stats()
			dnv := nvNow.Sub(prevNV)
			rec.Elements = sc.Leaves
			rec.Octants = vs.CurOctants
			rec.Overlap = vs.OverlapRatio
			rec.Expansion = vs.ExpansionFactor
			rec.NVBMReads = dnv.Reads
			rec.NVBMWrites = dnv.Writes
			rec.Merges = uint64(ops.Merges - prevOps.Merges)
			rec.GCFreed = uint64(ops.GCFreed - prevOps.GCFreed)
			rec.Copies = uint64(ops.Copies - prevOps.Copies)
			prevNV, prevOps = nvNow, ops
			obs.RecordStep(rec)
		}
		if tuner != nil {
			tuner.Observe(tree)
		}
	}
	// Land what the last collection freed, so the image's allocation
	// bitmap is exact.
	tree.Flush()
	w.Flush()

	if *tracePath != "" {
		if err := writeFileWith(*tracePath, obs.WriteTrace); err != nil {
			fmt.Fprintf(stderr, "droplet: %v\n", err)
			return 1
		}
	}
	if *metricsPath != "" {
		if err := writeFileWith(*metricsPath, obs.WriteSteps); err != nil {
			fmt.Fprintf(stderr, "droplet: %v\n", err)
			return 1
		}
	}

	hm := pmoctree.Extract(tree.ForEachLeaf)
	st := tree.Stats()
	fmt.Fprintf(stdout, "\nfinal mesh: %d elements, %d vertices (%d anchored, %d dangling)\n",
		len(hm.Elements), len(hm.Vertices), hm.AnchoredCount(), hm.DanglingCount())
	fmt.Fprintf(stdout, "octree ops: %d refines, %d coarsens, %d COW copies, %d merges, %d GC passes (%d freed), %d transforms\n",
		st.Refines, st.Coarsens, st.Copies, st.Merges, st.GCs, st.GCFreed, st.Transforms)
	fmt.Fprintf(stdout, "NVBM: %v; wear imbalance %.2f\n", nv.Stats(), nv.Wear().WearImbalance())
	if tuner != nil {
		fmt.Fprintf(stdout, "autotune: %d adjustments, final C0 budget %d octants (peak util %.0f%%)\n",
			tuner.Adjustments, tree.DRAMBudget(), tree.LastPeakDRAMUtilization()*100)
	}

	if *vtk != "" {
		f, err := os.Create(*vtk)
		if err != nil {
			fmt.Fprintf(stderr, "droplet: %v\n", err)
			return 1
		}
		if err := hm.WriteVTK(f, "droplet ejection final mesh"); err != nil {
			fmt.Fprintf(stderr, "droplet: writing VTK: %v\n", err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stdout, "mesh written to %s\n", *vtk)
	}
	if *image != "" {
		if err := nv.PersistFile(*image); err != nil {
			fmt.Fprintf(stderr, "droplet: writing image: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "persistent region written to %s\n", *image)
	}
	return 0
}

// writeFileWith creates path and fills it with one writer callback.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
