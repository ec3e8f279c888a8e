// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so CI can archive benchmark runs
// without a third-party parser. It understands the standard benchmark
// line format:
//
//	BenchmarkSolveParallel-8   3   401203100 ns/op   262144 cells   4 workers
//
// plus the goos/goarch/cpu/pkg header lines, which become metadata.
//
// With -compare-quantiles baseline.json new.json it gates serving-latency
// SLOs instead: both files are `pmserve -loadgen` SLO documents (per-class
// latency quantiles), and the command exits 1 if any class's p99 in new
// exceeds baseline by more than the -tolerance fraction AND by more than
// -floor-ns absolute nanoseconds. The absolute floor keeps scheduler
// jitter on sub-millisecond quantiles from failing the gate: a p99 that
// moves from 80us to 130us is noise, from 8ms to 13ms is a regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line: N iterations plus every trailing
// value/unit metric pair (ns/op, B/op, custom ReportMetric units).
type Result struct {
	Name    string             `json:"name"`
	Package string             `json:"package,omitempty"`
	Iters   int64              `json:"iterations"`
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the whole run.
type Doc struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	compareQ := flag.Bool("compare-quantiles", false, "compare two pmserve -loadgen SLO documents (baseline.json new.json); exit 1 on p99 regressions beyond -tolerance and -floor-ns")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional p99 increase before -compare-quantiles fails")
	floorNs := flag.Float64("floor-ns", 500_000, "absolute ns a quantile must additionally worsen by before -compare-quantiles fails (noise floor)")
	flag.Parse()

	if *compareQ {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare-quantiles needs exactly two files: baseline.json new.json")
			os.Exit(2)
		}
		regressed, err := compareQuantiles(os.Stdout, flag.Arg(0), flag.Arg(1), *tolerance, *floorNs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	doc := Doc{Results: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				r.Package = pkg
				doc.Results = append(doc.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseLine splits "BenchmarkX-8  N  v1 u1  v2 u2 ..." into a Result.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			break
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}

// SLOClass mirrors cmd/pmserve's loadgen output: one query class's
// request count and latency quantiles in nanoseconds.
type SLOClass struct {
	Count     uint64             `json:"count"`
	Quantiles map[string]float64 `json:"quantiles"`
}

// SLODoc is the pmserve -loadgen SLO document.
type SLODoc struct {
	Classes map[string]SLOClass `json:"classes"`
}

func loadSLO(path string) (SLODoc, error) {
	var doc SLODoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Classes) == 0 {
		return doc, fmt.Errorf("%s: no classes (not a pmserve -loadgen SLO document?)", path)
	}
	return doc, nil
}

// compareQuantiles gates per-class p99 latency: a class regresses when
// its p99 worsens by more than the tolerance fraction AND more than
// floorNs absolute nanoseconds. Classes present only on one side are
// informational.
func compareQuantiles(w *os.File, basePath, newPath string, tolerance, floorNs float64) (regressed bool, err error) {
	baseDoc, err := loadSLO(basePath)
	if err != nil {
		return false, err
	}
	newDoc, err := loadSLO(newPath)
	if err != nil {
		return false, err
	}
	classes := make([]string, 0, len(newDoc.Classes))
	for c := range newDoc.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	matched := 0
	for _, c := range classes {
		newP99 := newDoc.Classes[c].Quantiles["p99"]
		base, ok := baseDoc.Classes[c]
		if !ok {
			fmt.Fprintf(w, "  new    %-10s p99=%12.0f ns\n", c, newP99)
			continue
		}
		matched++
		baseP99 := base.Quantiles["p99"]
		verdict := "ok    "
		if baseP99 > 0 && newP99 > baseP99*(1+tolerance) && newP99-baseP99 > floorNs {
			verdict = "SLOWER"
			regressed = true
		} else if baseP99 > 0 && newP99 < baseP99*(1-tolerance) && baseP99-newP99 > floorNs {
			verdict = "faster"
		}
		pct := 0.0
		if baseP99 > 0 {
			pct = (newP99/baseP99 - 1) * 100
		}
		fmt.Fprintf(w, "  %s %-10s p99 %12.0f -> %12.0f ns  (%+.1f%%)\n", verdict, c, baseP99, newP99, pct)
	}
	for c, sc := range baseDoc.Classes {
		if _, ok := newDoc.Classes[c]; !ok {
			fmt.Fprintf(w, "  gone   %-10s p99=%12.0f ns\n", c, sc.Quantiles["p99"])
		}
	}
	if matched == 0 {
		return false, fmt.Errorf("no query class appears in both %s and %s", basePath, newPath)
	}
	if regressed {
		fmt.Fprintf(w, "benchjson: p99 SLO regression beyond %.0f%% tolerance (+%.0f ns floor)\n", tolerance*100, floorNs)
	}
	return regressed, nil
}
