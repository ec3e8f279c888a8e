// Command pmbench regenerates the tables and figures of the PM-octree
// paper's evaluation (§5). Each experiment id names a paper artifact:
//
//	pmbench table2     DRAM/NVBM characteristics (Table 2)
//	pmbench writemix   write share of meshing memory accesses (§1)
//	pmbench fig3       overlap ratio and memory per 1000 octants
//	pmbench fig5       locality-oblivious vs aware layout writes
//	pmbench fig6       weak scaling, three implementations
//	pmbench fig7       weak-scaling routine breakdown
//	pmbench fig8       strong scaling of PM-octree (+ breakdown)
//	pmbench fig9       strong scaling, three implementations
//	pmbench fig10      DRAM size configured for the C0 tree
//	pmbench fig11      dynamic transformation on/off
//	pmbench recovery   restart time after failures (§5.6)
//	pmbench endurance  NVBM wear and lifetime, layout on/off (extension)
//	pmbench workloads  the three motivating workloads on PM-octree (extension)
//	pmbench all        everything above
//
// -paper selects the larger configuration (minutes, closer to the paper's
// sweeps); the default finishes in seconds. -titan pushes the
// weak-scaling sweep to the paper's 1000-processor point (slow; use with
// fig6/fig7). -json emits machine-readable results for plotting.
//
// Telemetry (works with every experiment id):
//
//	-trace=out.json    Chrome trace_event timeline (chrome://tracing, Perfetto)
//	-metrics=out.jsonl one JSON step record per line (step, phases, NVBM deltas)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pmoctree/internal/experiments"
	"pmoctree/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is pmbench on args, writing tables (or JSON) to stdout and progress
// and diagnostics to stderr; it returns the process exit code: 0, 1 on a
// failed experiment or write, 2 on bad usage (no experiment id, or an
// unknown one).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	var (
		paper       = fs.Bool("paper", false, "run the large (paper-shaped) configuration")
		titan       = fs.Bool("titan", false, "weak-scale to 1000 simulated ranks (slow)")
		asJSON      = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
		tracePath   = fs.String("trace", "", "write a Chrome trace_event timeline to `file`")
		metricsPath = fs.String("metrics", "", "write per-step JSONL records to `file`")
		workers     = fs.Int("workers", 0, "per-rank worker-pool width (0 = GOMAXPROCS); results are identical for any value")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	ids := fs.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = allExperiments
	}
	if len(ids) == 0 {
		usage(stderr)
		return 2
	}
	for _, id := range ids {
		if !isExperiment(id) {
			fmt.Fprintf(stderr, "pmbench: unknown experiment %q (try: pmbench all)\n", id)
			return 2
		}
	}

	sc := experiments.DefaultScale()
	if *paper {
		sc = experiments.PaperScale()
	}
	if *titan {
		sc = experiments.TitanScale()
	}
	sc.Workers = *workers

	// The observer is shared across the requested ids: the trace file then
	// holds every experiment's timeline back to back.
	var obs *telemetry.Observer
	if *tracePath != "" || *metricsPath != "" {
		obs = telemetry.NewObserver()
	}

	results := map[string]any{}
	for _, id := range ids {
		start := time.Now()
		out, data, err := runExperiment(id, sc, obs)
		if err != nil {
			fmt.Fprintf(stderr, "pmbench: %v\n", err)
			return 1
		}
		if *asJSON {
			results[strings.ToLower(id)] = data
			fmt.Fprintf(stderr, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
			continue
		}
		fmt.Fprint(stdout, out)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(stderr, "pmbench: %v\n", err)
			return 1
		}
	}
	if err := writeTelemetry(obs, *tracePath, *metricsPath); err != nil {
		fmt.Fprintf(stderr, "pmbench: %v\n", err)
		return 1
	}
	return 0
}

// allExperiments is what "pmbench all" runs, in order.
var allExperiments = []string{"table2", "writemix", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "recovery", "endurance", "workloads"}

// isExperiment reports whether id names an experiment (any case).
func isExperiment(id string) bool {
	for _, e := range allExperiments {
		if strings.EqualFold(id, e) {
			return true
		}
	}
	return false
}

// writeTelemetry flushes the observer to the requested output files.
func writeTelemetry(obs *telemetry.Observer, tracePath, metricsPath string) error {
	if obs == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := obs.WriteSteps(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runExperiment executes one experiment, returning its formatted table and
// the structured rows (for -json). Scaling experiments share results across
// the figure pairs that reuse them.
func runExperiment(id string, sc experiments.Scale, obs *telemetry.Observer) (string, any, error) {
	switch strings.ToLower(id) {
	case "table2":
		rows := experiments.Table2()
		return experiments.FormatTable2(rows), rows, nil
	case "writemix":
		res := experiments.WriteMix(sc, obs)
		return experiments.FormatWriteMix(res), res, nil
	case "fig3":
		rows := experiments.Fig3(sc, obs)
		return experiments.FormatFig3(rows), rows, nil
	case "fig5":
		res := experiments.Fig5(obs)
		return experiments.FormatFig5(res), res, nil
	case "fig6":
		pts := experiments.Fig6(sc, obs)
		return experiments.FormatScaling("Figure 6: weak scaling (1 jet per rank)", pts), pts, nil
	case "fig7":
		pts := experiments.Fig7Points(sc, obs)
		return experiments.FormatBreakdown("Figure 7: weak-scaling routine breakdown (PM-octree)", pts), pts, nil
	case "fig8":
		pts := experiments.Fig8(sc, obs)
		return experiments.FormatStrong(pts) +
			experiments.FormatBreakdown("Figure 8(b): strong-scaling routine breakdown", pts), pts, nil
	case "fig9":
		pts := experiments.Fig9(sc, obs)
		return experiments.FormatScaling("Figure 9: strong scaling, three implementations", pts), pts, nil
	case "fig10":
		rows, ic, oc := experiments.Fig10(sc, obs)
		data := map[string]any{"rows": rows, "inCoreSeconds": ic, "outOfCoreSeconds": oc}
		return experiments.FormatFig10(rows, ic, oc), data, nil
	case "fig11":
		rows := experiments.Fig11(sc, obs)
		return experiments.FormatFig11(rows), rows, nil
	case "workloads":
		rows := experiments.Workloads(sc, obs)
		return experiments.FormatWorkloads(rows), rows, nil
	case "endurance":
		rows := experiments.Endurance(sc, obs)
		return experiments.FormatEndurance(rows), rows, nil
	case "recovery":
		rows, err := experiments.Recovery(sc, obs)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatRecovery(rows), rows, nil
	default:
		return "", nil, fmt.Errorf("unknown experiment %q (try: pmbench all)", id)
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: pmbench [-paper|-titan] [-json] [-trace=file] [-metrics=file] <experiment>...

experiments: table2 writemix fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 recovery endurance workloads all
`)
}
