package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// quartiles returns the first and third quartile of v by the exclusive
// method, as Python's statistics.quantiles(v, n=4) computes them.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

// aaRuns is the size of one set of the A/A study: ten runs on ten seeds, the
// sample the driver's acceptance check takes its quartiles over.
const aaRuns = 10

// runAA runs the working tree against itself: two sets of aaRuns runs per
// workload, alternating sets, run i of either set on seed i. It writes, per
// workload and end-to-end metric, both medians, how far the second is worse
// than the first, and each set's quartile spread as a share of its median —
// the two numbers a bound has to stay above.
func runAA(o options) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# A/A noise study\n\n")
	fmt.Fprintf(&b, "`go run -C benchmark pmoctree/benchmark --aa --seconds %d --scale %s`, %s: two sets (A, B) of %d runs of the same build per workload, alternating A and B, run i of either set on seed i. ",
		o.seconds, o.scale, time.Now().UTC().Format("2006-01-02"), aaRuns)
	fmt.Fprintf(&b, "`worse` is how far B's median is on the bad side of A's; `spread` is (Q3-Q1)/median over a set's runs, quartiles as Python's `statistics.quantiles(v, n=4)`. A bound must exceed `worse` and should exceed three times `spread`.\n\n")
	worstDiff, worstSpread := map[string]float64{}, map[string]float64{}
	for _, w := range workloadNames {
		o.workload = w
		sets := [2]map[string][]float64{{}, {}}
		var load [2][]float64
		for i := 0; i < aaRuns; i++ {
			for s := 0; s < 2; s++ {
				o.seed = int64(i + 1)
				rep, err := child(o)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w, o.seed, rep.Failed, rep.Attempted)
				}
				load[s] = append(load[s], rep.Provenance.LoadStart)
				for name, v := range rep.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(&b, "## %s\n\n1-minute load average at the start of a run: A %.2f–%.2f, B %.2f–%.2f.\n\n| metric | unit | median A | median B | worse | spread A | spread B |\n|---|---|---|---|---|---|---|\n",
			w, percentile(load[0], 0), percentile(load[0], 1), percentile(load[1], 0), percentile(load[1], 1))
		for _, d := range endToEndDefs {
			a, bb := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(bb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			spread := func(v []float64) float64 {
				q1, q3 := quartiles(v)
				return (q3 - q1) / median(v)
			}
			sa, sb := spread(a), spread(bb)
			fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% |\n", d.name, d.unit, ma, mb, worse*100, sa*100, sb*100)
			if worse > worstDiff[d.name] {
				worstDiff[d.name] = worse
			}
			for _, s := range []float64{sa, sb} {
				if s > worstSpread[d.name] {
					worstSpread[d.name] = s
				}
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "## Worst case per metric\n\n| metric | worst worse | worst spread |\n|---|---|---|\n")
	for _, d := range endToEndDefs {
		fmt.Fprintf(&b, "| %s | %.2f%% | %.2f%% |\n", d.name, worstDiff[d.name]*100, worstSpread[d.name]*100)
	}
	return os.WriteFile("AA.md", []byte(b.String()), 0o644)
}
