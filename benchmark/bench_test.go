package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/sim"
)

func tinyRun(t *testing.T, workload string, seed int64, trace bool) report {
	t.Helper()
	rep, err := runWorkload(options{workload: workload, seed: seed, seconds: 1, trace: trace, scale: "tiny", out: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, rep.Failed, rep.Attempted, rep.FailureNotes)
	}
	return rep
}

func checkMetrics(t *testing.T, workload string, rep report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", workload, d.name, v.Value)
		}
		if v.Unit != d.unit {
			t.Errorf("%s: %s has unit %q, want %q", workload, d.name, v.Unit, d.unit)
		}
	}
}

// Every workload emits every named metric; end-to-end metrics are never 0;
// the count metrics repeat to the last digit, whatever the seed (it draws the
// queries, not the mesh); spans nest without gaps.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		a, b := tinyRun(t, w, 1, false), tinyRun(t, w, 2, false)
		checkMetrics(t, w, a, endToEndDefs)
		for _, d := range endToEndDefs {
			if a.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, d.name, a.Metrics[d.name].Value)
			}
		}
		for _, name := range []string{"nvbm_writes_per_step", "modeled_ms_per_step", "nvbm_bytes_per_leaf"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between seeds 1 and 2: %v, %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		tr := tinyRun(t, w, 1, true)
		checkMetrics(t, w, tr, perLayerDefs)
		if tr.Provenance.SelfTimeGap > 0.02 {
			t.Errorf("%s: span self times miss their roots by %.1f%%", w, tr.Provenance.SelfTimeGap*100)
		}
	}
}

// The layers a workload never enters read 0, as the README's table predicts.
func TestIdleLayersReadZero(t *testing.T) {
	amr := tinyRun(t, "amr_ejection", 1, true)
	for _, name := range []string{"solver.build_ms", "fluid.step_ms", "fluid.commit_ms", "router.local_overhead_us", "router.materialize_ms", "router.fanout_mean"} {
		if v := amr.Metrics[name].Value; v != 0 {
			t.Errorf("amr_ejection: %s = %v, want 0", name, v)
		}
	}
	bulk := tinyRun(t, "bulk_routed", 1, true)
	for _, name := range []string{"sim.self_ms", "sim.step_ms", "fluid.step_ms"} {
		if v := bulk.Metrics[name].Value; v != 0 {
			t.Errorf("bulk_routed: %s = %v, want 0", name, v)
		}
	}
	if v := bulk.Metrics["router.fanout_mean"].Value; v < 1 {
		t.Errorf("bulk_routed: router.fanout_mean = %v, want >= 1", v)
	}
}

// A tree stepped through tracedTree evolves exactly like a bare one and
// takes the same fast paths: the wrapper observes, it does not steer.
func TestTracedTreeIsTransparent(t *testing.T) {
	field := sim.NewDroplet(sim.DropletConfig{Steps: 40})
	run := func(traced bool) ([]uint64, core.FastPathStats) {
		ct := core.Create(core.Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0), DRAMBudgetOctants: 512})
		var m mesh = ct
		if traced {
			m = &tracedTree{Tree: ct, tr: newTracer()}
		}
		pool := parallel.NewForced(2) // the tiled, indexed path, whatever the machine
		var digests []uint64
		for s := 1; s <= 8; s++ {
			sim.StepFieldPool(m, field, s, 5, pool)
			m.SetFeatures(sim.FeatureOf(field, s+1))
			m.Persist()
			digests = append(digests, committedDigest(ct))
		}
		return digests, ct.FastPath()
	}
	bareD, bareFP := run(false)
	tracedD, tracedFP := run(true)
	for i := range bareD {
		if bareD[i] != tracedD[i] {
			t.Fatalf("step %d: digest %x through tracedTree, %x bare", i+1, tracedD[i], bareD[i])
		}
	}
	bareFP.TileRebuildNs, tracedFP.TileRebuildNs = 0, 0 // wall time, not a count
	if bareFP != tracedFP {
		t.Errorf("fast-path counters differ:\n traced %+v\n bare   %+v", tracedFP, bareFP)
	}
	if tracedFP.TileScatters == 0 || tracedFP.LeafIndexReuses == 0 {
		t.Errorf("the tiled/indexed fast paths did not run: %+v", tracedFP)
	}
}

func TestMinPerIndex(t *testing.T) {
	for _, tc := range []struct {
		in   [][]int64
		want []int64
	}{
		{nil, nil},
		{[][]int64{{3, 1, 2}}, []int64{3, 1, 2}},
		{[][]int64{{3, 1, 2}, {1, 5, 2}, {2, 2, 0}}, []int64{1, 1, 0}},
	} {
		got := minPerIndex(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("minPerIndex(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("minPerIndex(%v) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

// A pass that replays its items contributes one row per replay.
func TestChunks(t *testing.T) {
	got := chunks([][]int64{{1, 2, 3, 4, 5}, {6, 7}, {8}}, 2)
	want := [][]int64{{1, 2}, {3, 4}, {6, 7}}
	if len(got) != len(want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Errorf("chunks = %v, want %v", got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		v    []int64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.9, 7},
		{[]int64{4, 1, 3, 2}, 0.5, 2.5},
		{[]int64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
		{[]int64{1, 2}, 0, 1},
		{[]int64{1, 2}, 1, 2},
	} {
		if got := percentile(tc.v, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.v, tc.p, got, tc.want)
		}
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []span{
		{Name: "root", Seq: 1, Start: 0, End: 100},
		{Name: "a", Seq: 2, Parent: 1, Start: 10, End: 40},
		{Name: "a1", Seq: 3, Parent: 2, Start: 15, End: 25},
		{Name: "b", Seq: 4, Parent: 1, Start: 50, End: 90},
		{Name: "worker", Seq: 5, Parent: 1, Start: 0, End: 500, Async: true},
	}
	self := selfTimes(spans)
	want := []int64{30, 20, 10, 40, 500}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if gap := selfTimeGap(spans); gap != 0 {
		t.Errorf("selfTimeGap = %v, want 0", gap)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// spec.go are what the runner prints. They must name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: %s has a bound", kind, g.Name)
			}
			if bounded && (g.Bound == nil || *g.Bound != bounds[d.name]) {
				t.Errorf("%s: %s has another bound than %v", kind, g.Name, bounds[d.name])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndDefs, true)
	same("per_layer", doc.PerLayer, perLayerDefs, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}
