// Command benchmark is the repository's one lifecycle benchmark: build, step,
// crash/recover and query a persistent adaptive mesh, over four fixed-work
// workloads. See README.md in this directory for the metric dictionary and
// BENCHMARK.json at the repository root for the contract the driver checks.
//
// It is a module of its own (go.mod in this directory, the repository's module
// replaced by ../), so it is run from the repository root with -C:
//
//	go run -C benchmark pmoctree/benchmark                                   every workload, every metric
//	go run -C benchmark pmoctree/benchmark --workload amr_ejection           one workload
//	go run -C benchmark pmoctree/benchmark --workload query_live --trace 1   per-layer metrics + trace file
//	go run -C benchmark pmoctree/benchmark --aa                              the A/A noise study (rewrites AA.md)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance says where and how a result was measured.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    int     `json:"seconds"`
	Passes     int     `json:"passes"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	LoadStart  float64 `json:"loadavg_start"`
	LoadEnd    float64 `json:"loadavg_end"`
	Unquiet    bool    `json:"unquiet"` // started above 0.5 x nproc load: still reported
	// SelfTimeGap is, over the traced pass's step and request trees, the
	// largest relative gap between a root span and the self times under it.
	SelfTimeGap float64  `json:"self_time_gap,omitempty"`
	Notes       []string `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full record kept under --out.
type report struct {
	Provenance provenance `json:"provenance"`
	result
	FailureNotes []string `json:"failure_notes,omitempty"`
}

func loadavg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(raw))[0], 64) // 0 when the file is not the usual shape
	return v
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	out      string
}

// runWorkload runs one workload in this process: untraced passes until the
// time budget is spent, then (with trace) one traced pass and the ladders.
// The budget counts from here, so it covers input generation too.
func runWorkload(o options) (report, error) {
	start := time.Now()
	sp, err := specFor(o.workload, o.scale)
	if err != nil {
		return report{}, err
	}
	nproc := runtime.NumCPU()
	procs := nproc
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	prov := provenance{
		Workload: o.workload, Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Trace: o.trace,
		NProc: nproc, GOMAXPROCS: procs, GoVersion: runtime.Version(), CPU: cpuModel(), Commit: gitCommit(),
		LoadStart: loadavg(),
	}
	prov.Unquiet = prov.LoadStart > 0.5*float64(nproc)

	r := newRunner(sp, o.seed, nproc)
	budget := time.Duration(o.seconds) * time.Second
	maxPasses := sp.passes
	if o.trace {
		// The traced run spends its time on the traced pass and the ladders;
		// two untraced passes are enough to measure the tracing overhead.
		maxPasses = 2
	}
	var passes []*passResult
	var peakRSS float64
	var longest time.Duration
	for len(passes) < maxPasses {
		// Every pass does the same fixed work; the budget only decides how
		// many passes the per-item minimum is taken over (at least two).
		if len(passes) >= 2 && time.Since(start)+longest > budget {
			break
		}
		t := time.Now()
		res, err := r.runPass(nil)
		if err != nil {
			return report{}, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		if d := time.Since(t); d > longest {
			longest = d
		}
		passes = append(passes, res)
		if len(passes) == 2 {
			// Read after the second pass, which every run reaches: the
			// high-water mark must not depend on how many passes the budget
			// allowed.
			peakRSS = peakRSSMB()
		}
	}
	prov.Passes = len(passes)
	ph := passes[0].phaseNs
	prov.Notes = append(prov.Notes, fmt.Sprintf("pass 0: set-up %.2fs, steps %.2fs, recover %.2fs, queries %.2fs (checks included)",
		float64(ph[0])/1e9, float64(ph[1])/1e9, float64(ph[2])/1e9, float64(ph[3])/1e9))
	r.crossCheck(passes)

	rep := report{Provenance: prov}
	rep.Metrics = map[string]metricValue{}
	if !o.trace {
		counts := passes[0]
		if sp.pipeline > 0 {
			if counts, err = r.countPass(); err != nil {
				return report{}, fmt.Errorf("count pass: %w", err)
			}
		}
		m := r.endToEnd(passes, counts)
		m["peak_rss_mb"] = peakRSS
		for _, d := range endToEndDefs {
			rep.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
	} else {
		tr := newTracer()
		tp, err := r.runPass(tr)
		if err != nil {
			return report{}, fmt.Errorf("traced pass: %w", err)
		}
		r.crossCheck([]*passResult{passes[0], tp})
		lr, err := r.ladder(tr)
		if err != nil {
			return report{}, fmt.Errorf("ladder: %w", err)
		}
		if lr.speedupNote != "" {
			rep.Provenance.Notes = append(rep.Provenance.Notes, "parallel.speedup_w2 "+lr.speedupNote)
		}
		m := r.perLayer(passes, tp, tr.spans, lr, prov.LoadStart)
		for _, d := range perLayerDefs {
			rep.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return report{}, err
		}
		path := filepath.Join(o.out, "trace-"+o.workload+".json")
		if err := writeChromeTrace(path, tr.spans); err != nil {
			return report{}, err
		}
		rep.Provenance.SelfTimeGap = selfTimeGap(tr.spans)
		rep.Provenance.Notes = append(rep.Provenance.Notes, fmt.Sprintf("trace: %s (%d spans)", path, len(tr.spans)))
	}
	rep.Attempted, rep.Failed = r.fail.attempted, r.fail.failed
	rep.Correct = r.fail.failed == 0
	rep.FailureNotes = r.fail.notes
	rep.Provenance.LoadEnd = loadavg()
	return rep, nil
}

// emit prints every metric as "workload/metric value unit", keeps the full
// report under out, and ends with the one-line result object.
func emit(o options, rep report) error {
	defs := endToEndDefs
	if o.trace {
		defs = perLayerDefs
	}
	for _, d := range defs {
		fmt.Printf("%s/%s %.6g %s\n", o.workload, d.name, rep.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%s/ops_attempted %d count\n%s/ops_failed %d count\n", o.workload, rep.Attempted, o.workload, rep.Failed)
	for _, n := range rep.FailureNotes {
		fmt.Fprintln(os.Stderr, "FAILED:", n)
	}
	p := rep.Provenance
	fmt.Fprintf(os.Stderr, "%s seed=%d scale=%s passes=%d nproc=%d GOMAXPROCS=%d %s %q commit=%s load %.2f -> %.2f unquiet=%v %v\n",
		p.Workload, p.Seed, p.Scale, p.Passes, p.NProc, p.GOMAXPROCS, p.GoVersion, p.CPU, p.Commit, p.LoadStart, p.LoadEnd, p.Unquiet, p.Notes)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := "result-" + o.workload
	if o.trace {
		name += "-trace"
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, name+".json"), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// child runs one (workload, run) in a process of its own, so that peak RSS
// and the Go heap belong to that workload alone, and returns its report.
func child(o options) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--scale", o.scale, "--out", o.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	// Everything but the result line is passed on; the result, with its
	// provenance, is read from the record the child kept under out.
	text := strings.TrimSpace(string(out))
	fmt.Println(text[:strings.LastIndexByte(text, '\n')])
	name := "result-" + o.workload
	if o.trace {
		name += "-trace"
	}
	raw, err := os.ReadFile(filepath.Join(o.out, name+".json"))
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return report{}, fmt.Errorf("%s: %w", name, err)
	}
	return rep, nil
}

func main() {
	var o options
	var trace int
	var aa bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one process each): "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the inputs: every query point and box")
	flag.IntVar(&o.seconds, "seconds", 38, "time budget of the untraced passes; it sets how many passes run, never how much work a pass does")
	flag.IntVar(&trace, "trace", 0, "1: add a traced pass and the ladders, print the per-layer metrics, write out/trace-<workload>.json")
	flag.StringVar(&o.scale, "scale", "full", "full, or tiny (the self-test's size)")
	flag.StringVar(&o.out, "out", "out", "directory for result and trace files")
	flag.BoolVar(&aa, "aa", false, "run the A/A noise study over all workloads and rewrite AA.md")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case aa:
		if err := runAA(o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	case o.workload == "":
		failed := false
		for _, w := range workloadNames {
			o.workload = w
			rep, err := child(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				failed = true
			} else if !rep.Correct {
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	default:
		rep, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if err := emit(o, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	}
}
