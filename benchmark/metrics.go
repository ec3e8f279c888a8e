package main

import (
	"os"
	"strconv"
	"strings"

	"pmoctree/internal/nvbm"
	"pmoctree/internal/telemetry"
)

// metricDef names one metric; BENCHMARK.json repeats name, unit and
// direction (the self-test compares the two), the README says how each is
// measured.
type metricDef struct {
	name, unit, better string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"steps_per_s", "1/s", "higher"},
	{"persist_p50_ms", "ms", "lower"},
	{"construct_mleaves_per_s", "Mleaves/s", "higher"},
	{"recover_p50_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"point_p50_us", "us", "lower"},
	{"scan_p50_us", "us", "lower"},
	{"query_p90_us", "us", "lower"},
	{"nvbm_writes_per_step", "count", "lower"},
	{"modeled_ms_per_step", "model-ms", "lower"},
	{"nvbm_bytes_per_leaf", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// bounds is, per end-to-end metric, the share of the parent's median a change
// may lose before it counts as a regression. The device counts repeat exactly;
// the rest is as tight as this machine's own wander allows (README, Noise).
var bounds = map[string]float64{
	"setup_s": 0.25, "steps_per_s": 0.25, "persist_p50_ms": 0.25, "construct_mleaves_per_s": 0.25,
	"recover_p50_ms": 0.25, "queries_per_s": 0.25, "point_p50_us": 0.25, "scan_p50_us": 0.25, "query_p90_us": 0.25,
	"nvbm_writes_per_step": 0.005, "modeled_ms_per_step": 0.005, "nvbm_bytes_per_leaf": 0.005,
	"peak_rss_mb": 0.25,
}

var perLayerDefs = []metricDef{
	{"sim.step_ms", "ms", "lower"},
	{"sim.self_ms", "ms", "lower"},
	{"sim.allocs_per_step", "count", "lower"},
	{"sim.alloc_kb_per_step", "kB", "lower"},
	{"sim.solved_per_step", "count", "lower"},

	{"core.refine_ms", "ms", "lower"},
	{"core.coarsen_ms", "ms", "lower"},
	{"core.balance_ms", "ms", "lower"},
	{"core.update_ms", "ms", "lower"},
	{"core.gather_ms", "ms", "lower"},
	{"core.scatter_ms", "ms", "lower"},
	{"core.tile_reuse_ratio", "ratio", "higher"},
	{"core.leafindex_reuse_ratio", "ratio", "higher"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"core.cow_copies_per_step", "count", "lower"},

	{"core.persist_ms", "ms", "lower"},
	{"core.merge_ms", "ms", "lower"},
	{"core.gc_ms", "ms", "lower"},
	{"core.gc_freed_per_step", "count", "higher"},
	{"core.overlap_ratio", "ratio", "higher"},
	{"core.writeback_ms", "ms", "lower"},
	{"core.pipeline_stall_ratio", "ratio", "lower"},
	{"core.flush_ms", "ms", "lower"},
	{"core.durability_lag_max", "count", "lower"},

	{"core.restore_ms", "ms", "lower"},
	{"core.restore_fallbacks", "count", "lower"},
	{"core.construct_ms", "ms", "lower"},

	{"nvbm.reads_per_step", "count", "lower"},
	{"nvbm.read_kb_per_step", "kB", "lower"},
	{"nvbm.write_kb_per_step", "kB", "lower"},
	{"nvbm.bytes_per_write", "B", "higher"},
	{"nvbm.dram_modeled_ms_per_step", "model-ms", "lower"},
	{"nvbm.wear_imbalance", "ratio", "lower"},
	{"nvbm.live_modeled_ms_per_step", "model-ms", "lower"},
	{"pmem.high_water_mb", "MB", "lower"},
	{"pmem.utilization", "ratio", "higher"},

	{"bulk.construct_ms", "ms", "lower"},
	{"bulk.balance_ms", "ms", "lower"},
	{"bulk.alloc_bytes_per_leaf", "B", "lower"},
	{"bulk.allocs_per_leaf", "count", "lower"},

	{"tile.occupancy", "ratio", "higher"},
	{"tile.count", "count", "lower"},

	{"solver.build_ms", "ms", "lower"},
	{"solver.cg_iters_per_step", "count", "lower"},
	{"solver.apply_ns_per_cell", "ns", "lower"},
	{"fluid.step_ms", "ms", "lower"},
	{"fluid.commit_ms", "ms", "lower"},
	{"fluid.volume_drift", "ratio", "lower"},

	{"parallel.speedup_w2", "ratio", "higher"},
	{"parallel.utilization", "ratio", "higher"},
	{"parallel.chunks_per_run", "count", "lower"},

	{"serve.index_build_ms", "ms", "lower"},
	{"serve.snapshot_point_us", "us", "lower"},
	{"serve.snapshot_region_us", "us", "lower"},
	{"serve.snapshot_agg_us", "us", "lower"},
	{"serve.sched_overhead_us", "us", "lower"},
	{"serve.queue_wait_us", "us", "lower"},
	{"serve.handler_overhead_us", "us", "lower"},
	{"serve.http_overhead_us", "us", "lower"},
	{"serve.rejected_ratio", "ratio", "lower"},
	{"serve.device_modeled_us_per_query", "model-us", "lower"},
	{"serve.hits_per_region", "count", "lower"},
	{"serve.publish_ms", "ms", "lower"},
	{"serve.pinned_versions_max", "count", "lower"},

	{"router.local_overhead_us", "us", "lower"},
	{"router.http_hop_overhead_us", "us", "lower"},
	{"router.front_http_overhead_us", "us", "lower"},
	{"router.fanout_mean", "count", "lower"},
	{"router.retries_per_query", "count", "lower"},
	{"router.hedges_per_query", "count", "lower"},
	{"router.degraded_ratio", "ratio", "lower"},
	{"router.materialize_ms", "ms", "lower"},
	{"router.shard_bytes_ratio", "ratio", "lower"},

	{"recovery.sync_ms", "ms", "lower"},
	{"recovery.sync_kb_per_step", "kB", "lower"},
	{"recovery.replica_recover_ms", "ms", "lower"},
	{"recovery.first_answer_ms", "ms", "lower"},

	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.raw_query_p99_us", "us", "lower"},
	{"bench.raw_step_p90_ms", "ms", "lower"},
	{"bench.pass_spread_pct", "%", "lower"},
	{"bench.loadavg_start", "count", "lower"},
}

// countWindow is the range of step indices the count metrics are taken over.
func (sp spec) countWindow() (lo, hi int) {
	if sp.quiesced() {
		return 0, sp.leadIn
	}
	return sp.leadIn, sp.stepsPerPass()
}

// crossCheck holds every pass to pass 0: the same digest after every step,
// and the same device counts over every step no worker or reader overlapped.
// Each step of each pass is one attempted operation.
func (r *runner) crossCheck(passes []*passResult) {
	for pi, p := range passes {
		for i, s := range p.steps {
			ref := passes[0].steps[i]
			ok := s.digest == ref.digest && s.leaves == ref.leaves
			if ok && s.exact {
				ok = s.nv == ref.nv && s.dram == ref.dram
			}
			r.fail.op(ok, "pass %d step %d differs from pass 0: digest %x/%x, NVBM %v / %v", pi, i, s.digest, ref.digest, s.nv, ref.nv)
		}
		if pi > 0 && r.sp.pipeline == 0 && (p.hwBytes != passes[0].hwBytes || p.leaves != passes[0].leaves) {
			r.fail.op(false, "pass %d: arena high water %d B over %d leaves, pass 0 had %d B over %d", pi, p.hwBytes, p.leaves, passes[0].hwBytes, passes[0].leaves)
		}
	}
}

func stepField(passes []*passResult, lo, hi int, f func(stepSample) int64) [][]int64 {
	out := make([][]int64, len(passes))
	for pi, p := range passes {
		for _, s := range p.steps[lo:hi] {
			out[pi] = append(out[pi], f(s))
		}
	}
	return out
}

func field(passes []*passResult, f func(*passResult) []int64) [][]int64 {
	out := make([][]int64, len(passes))
	for pi, p := range passes {
		out[pi] = f(p)
	}
	return out
}

// latencies returns, per timed query, the minimum over every copy of it —
// each round of each pass — with the queries' classes (lead-in dropped).
func (r *runner) latencies(passes []*passResult) (lat []int64, class []int) {
	lat = minPerIndex(chunks(field(passes, func(p *passResult) []int64 {
		out := make([]int64, 0, r.sp.rounds*r.sp.queries)
		for _, rep := range p.replies[r.sp.leadInQ:] {
			out = append(out, rep.ns)
		}
		return out
	}), r.sp.queries))
	for _, q := range r.in.queries[r.sp.leadInQ : r.sp.leadInQ+r.sp.queries] {
		class = append(class, q.class)
	}
	return lat, class
}

// endToEnd folds the untraced passes into the user-visible metrics. Every
// timed item is taken at its minimum over the passes; a metric is a sum or a
// quantile over items. counts is the pass the count metrics are read from:
// pass 0, or the synchronous count pass of a pipelined workload.
func (r *runner) endToEnd(passes []*passResult, counts *passResult) map[string]float64 {
	sp := r.sp
	m := map[string]float64{}

	// A run sets up setupReps times per pass; setup_s is what those set-ups
	// cost together, repetition k taken where it ran least disturbed.
	m["setup_s"] = float64(sum(minPerIndex(field(passes, func(p *passResult) []int64 { return p.setupNs })))) / 1e9

	wall := minPerIndex(stepField(passes, sp.leadIn, sp.stepsPerPass(), func(s stepSample) int64 { return s.wallNs }))
	m["steps_per_s"] = float64(sp.measured) / float64(sum(wall)) * 1e9
	persist := minPerIndex(stepField(passes, sp.leadIn, sp.stepsPerPass(), func(s stepSample) int64 { return s.persistNs }))
	m["persist_p50_ms"] = median(persist) / 1e6

	// Every repetition constructs the same mesh: one item, as many copies as
	// there are set-ups in the run.
	best := passes[0].constructNs[0]
	for _, p := range passes {
		for _, c := range p.constructNs {
			if c < best {
				best = c
			}
		}
	}
	m["construct_mleaves_per_s"] = float64(len(r.in.initial.codes)) / float64(best) * 1e3

	// Restarts differ only in the point they answer first: recoverAsks items,
	// cycles/recoverAsks copies of each per pass.
	m["recover_p50_ms"] = median(minPerIndex(chunks(field(passes, func(p *passResult) []int64 { return p.recoverNs }), recoverAsks))) / 1e6

	leadBlocks := sp.leadInQ / sp.block
	blocks := minPerIndex(chunks(field(passes, func(p *passResult) []int64 { return p.blockNs[leadBlocks:] }), sp.queries/sp.block))
	m["queries_per_s"] = float64(sp.queries) / float64(sum(blocks)) * 1e9
	lat, class := r.latencies(passes)
	m["point_p50_us"] = median(pick(lat, func(i int) bool { return class[i] == classPoint })) / 1e3
	m["scan_p50_us"] = median(pick(lat, func(i int) bool { return class[i] != classPoint })) / 1e3
	m["query_p90_us"] = percentile(lat, 0.9) / 1e3

	lo, hi := sp.countWindow()
	var nv, dram nvbm.Stats
	for _, s := range counts.steps[lo:hi] {
		nv, dram = nv.Add(s.nv), dram.Add(s.dram)
	}
	n := float64(hi - lo)
	m["nvbm_writes_per_step"] = float64(nv.Writes) / n
	m["modeled_ms_per_step"] = float64(nv.ModeledNs+dram.ModeledNs) / n / 1e6
	m["nvbm_bytes_per_leaf"] = float64(counts.hwBytes) / float64(counts.leaves)
	return m
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// spanIndex groups a traced pass's spans for the per-layer folds.
type spanIndex struct {
	spans []span
	self  []int64
}

// perGroup sums, for every group with the prefix, the durations (or self
// times) of the spans called name, in group order of first appearance.
func (x spanIndex) perGroup(prefix, name string, self bool, keep func(group string) bool) []int64 {
	var order []string
	sums := map[string]int64{}
	for i, s := range x.spans {
		if !strings.HasPrefix(s.Group, prefix) || (keep != nil && !keep(s.Group)) {
			continue
		}
		if _, seen := sums[s.Group]; !seen {
			order = append(order, s.Group)
			sums[s.Group] = 0
		}
		if s.Name == name {
			if self {
				sums[s.Group] += x.self[i]
			} else {
				sums[s.Group] += s.dur()
			}
		}
	}
	out := make([]int64, len(order))
	for i, g := range order {
		out[i] = sums[g]
	}
	return out
}

func (x spanIndex) all(name string) []int64 {
	var out []int64
	for _, s := range x.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func hist(s telemetry.Snapshot, prefix string) (sum, count float64) {
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, prefix) {
			sum += float64(h.Sum)
			count += float64(h.Count)
		}
	}
	return sum, count
}

// pairedMedian is the median over queries of rung a minus rung b, in µs.
func pairedMedian(a, b []int64) float64 {
	if a == nil || b == nil {
		return 0
	}
	d := make([]int64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d) / 1e3
}

// perLayer folds the traced pass, its spans and the ladder into the
// per-layer metrics. A layer the workload never enters reads 0.
func (r *runner) perLayer(untraced []*passResult, tp *passResult, spans []span, lr *ladderResult, loadavg float64) map[string]float64 {
	sp := r.sp
	m := map[string]float64{}
	x := spanIndex{spans, selfTimes(spans)}
	measured := func(group string) bool {
		i, err := strconv.Atoi(strings.TrimPrefix(group, "step-"))
		return err == nil && i >= sp.leadIn && i < sp.stepsPerPass()
	}
	stepMs := func(name string) float64 { return median(x.perGroup("step-", name, false, measured)) / 1e6 }
	steps := float64(sp.measured)
	w0, w1 := tp.win0, tp.win1

	m["sim.step_ms"] = stepMs("sim.step")
	simSelf := x.perGroup("step-", "sim.step", true, measured)
	for i, cb := range x.perGroup("step-", "sim.callback", false, measured) {
		simSelf[i] += cb
	}
	m["sim.self_ms"] = median(simSelf) / 1e6
	m["sim.allocs_per_step"] = float64(w1.mallocs-w0.mallocs) / steps
	m["sim.alloc_kb_per_step"] = float64(w1.allocB-w0.allocB) / steps / 1024
	solved, iters := 0, 0
	for _, s := range tp.steps[sp.leadIn:] {
		solved += s.solved
		iters += s.iters
	}
	m["sim.solved_per_step"] = float64(solved) / steps

	for _, n := range []string{"refine", "coarsen", "balance", "update", "gather", "scatter", "persist", "merge", "gc", "construct"} {
		m["core."+n+"_ms"] = stepMs("core." + n)
	}
	fp0, fp1 := w0.fp, w1.fp
	m["core.tile_reuse_ratio"] = ratio(float64(fp1.TileReuses-fp0.TileReuses), float64(fp1.TileReuses-fp0.TileReuses+fp1.TileRebuilds-fp0.TileRebuilds))
	m["core.leafindex_reuse_ratio"] = ratio(float64(fp1.LeafIndexReuses-fp0.LeafIndexReuses), float64(fp1.LeafIndexReuses-fp0.LeafIndexReuses+fp1.LeafIndexRebuilds-fp0.LeafIndexRebuilds))
	m["core.cache_hit_ratio"] = ratio(float64(fp1.CacheHits-fp0.CacheHits), float64(fp1.CacheHits-fp0.CacheHits+fp1.CacheMisses-fp0.CacheMisses))
	m["core.cow_copies_per_step"] = float64(w1.ops.Copies-w0.ops.Copies) / steps
	m["core.gc_freed_per_step"] = float64(w1.ops.GCFreed-w0.ops.GCFreed) / steps
	m["core.overlap_ratio"] = median(tp.overlap) // sampled on the lead-in steps
	m["core.writeback_ms"] = median(x.all("core.writeback")) / 1e6
	m["core.pipeline_stall_ratio"] = ratio(float64(w1.pipe.Stalls-w0.pipe.Stalls), float64(w1.ops.Persists-w0.ops.Persists))
	m["core.flush_ms"] = float64(tp.flushNs) / 1e6
	m["core.durability_lag_max"] = float64(tp.lagMax)
	m["core.restore_ms"] = median(tp.restoreNs) / 1e6
	m["core.restore_fallbacks"] = float64(tp.fallbacks)
	if sp.kind != kindIngest {
		// Only an ingest step constructs; elsewhere the one construction is set-up's.
		m["core.construct_ms"] = median(x.perGroup("setup", "core.construct", false, nil)) / 1e6
	}

	nv, dram := w1.nv.Sub(w0.nv), w1.dram.Sub(w0.dram)
	m["nvbm.reads_per_step"] = float64(nv.Reads) / steps
	m["nvbm.read_kb_per_step"] = float64(nv.ReadBytes) / steps / 1024
	m["nvbm.write_kb_per_step"] = float64(nv.WriteBytes) / steps / 1024
	m["nvbm.bytes_per_write"] = ratio(float64(nv.WriteBytes), float64(nv.Writes))
	m["nvbm.dram_modeled_ms_per_step"] = float64(dram.ModeledNs) / steps / 1e6
	m["nvbm.wear_imbalance"] = tp.wear
	m["nvbm.live_modeled_ms_per_step"] = float64(tp.liveNV.ModeledNs) / steps / 1e6
	m["pmem.high_water_mb"] = float64(tp.hwBytes) / (1 << 20)
	m["pmem.utilization"] = ratio(float64(tp.liveSlots), float64(tp.hwSlots))

	m["bulk.construct_ms"] = float64(lr.bulkConstructNs) / 1e6
	m["bulk.balance_ms"] = float64(lr.bulkBalanceNs) / 1e6
	m["bulk.alloc_bytes_per_leaf"] = lr.allocBytesPerLeaf
	m["bulk.allocs_per_leaf"] = lr.allocsPerLeaf
	m["tile.occupancy"] = tp.occupancy
	m["tile.count"] = float64(tp.tiles)

	m["solver.build_ms"] = median(x.all("solver.build")) / 1e6
	m["solver.cg_iters_per_step"] = float64(iters) / steps
	m["solver.apply_ns_per_cell"] = lr.applyNsPerCell
	m["fluid.step_ms"] = stepMs("fluid.step")
	m["fluid.commit_ms"] = stepMs("fluid.commit")
	m["fluid.volume_drift"] = tp.volumeDrift
	m["parallel.speedup_w2"] = lr.speedupW2
	m["parallel.utilization"] = tp.poolSnap.Gauges["pool.utilization"]
	m["parallel.chunks_per_run"] = ratio(float64(tp.poolSnap.Counters["pool.chunks"]), float64(tp.poolSnap.Counters["pool.runs"]))

	class := make([]int, sp.ladderQueries)
	for i, q := range r.in.queries[:sp.ladderQueries] {
		class[i] = q.class
	}
	rung := lr.rung
	m["serve.index_build_ms"] = float64(lr.indexBuildNs) / 1e6
	for c, n := range classNames {
		m["serve.snapshot_"+n+"_us"] = median(pick(rung[rungSnapshot], func(i int) bool { return class[i] == c })) / 1e3
	}
	m["serve.sched_overhead_us"] = pairedMedian(rung[rungSched], rung[rungSnapshot])
	m["serve.handler_overhead_us"] = pairedMedian(rung[rungHandler], rung[rungSched])
	m["serve.http_overhead_us"] = pairedMedian(rung[rungHTTP], rung[rungHandler])
	qsum, qcount := hist(lr.serve, "serve.queue_wait_ns.")
	m["serve.queue_wait_us"] = ratio(qsum, qcount) / 1e3
	m["serve.rejected_ratio"] = ratio(float64(lr.serve.Counters["serve.rejected"]), float64(lr.serve.Counters["serve.requests"]))
	m["serve.device_modeled_us_per_query"] = float64(lr.modeledNs) / float64(sp.ladderQueries) / 1e3
	hits, regions := 0, 0
	for i, h := range lr.hits {
		if class[i] == classRegion {
			hits += h
			regions++
		}
	}
	m["serve.hits_per_region"] = ratio(float64(hits), float64(regions))
	m["serve.publish_ms"] = median(x.all("serve.publish")) / 1e6
	m["serve.pinned_versions_max"] = float64(tp.pinnedMax)

	m["router.local_overhead_us"] = pairedMedian(rung[rungRouterLocal], rung[rungSched])
	m["router.http_hop_overhead_us"] = pairedMedian(rung[rungRouterHTTP], rung[rungRouterLocal])
	m["router.front_http_overhead_us"] = pairedMedian(rung[rungFrontHTTP], rung[rungRouterHTTP])
	m["router.fanout_mean"] = lr.fanout
	requests := float64(lr.router.Counters["router.requests"])
	m["router.retries_per_query"] = ratio(float64(lr.router.Counters["router.retries"]), requests)
	m["router.hedges_per_query"] = ratio(float64(lr.router.Counters["router.hedges"]), requests)
	m["router.degraded_ratio"] = ratio(float64(lr.router.Counters["router.degraded"]), requests)
	m["router.materialize_ms"] = median(x.perGroup("setup", "router.materialize", false, nil)) / 1e6 / 2
	m["router.shard_bytes_ratio"] = ratio(float64(tp.matBytes)/2, float64(tp.srcBytes))

	m["recovery.sync_ms"] = median(tp.syncNs) / 1e6
	var shipped uint64
	for _, b := range tp.syncBytes {
		shipped += b
	}
	m["recovery.sync_kb_per_step"] = ratio(float64(shipped)/1024, float64(len(tp.syncBytes)))
	m["recovery.replica_recover_ms"] = float64(tp.replicaNs) / 1e6
	m["recovery.first_answer_ms"] = median(tp.firstAnswerNs) / 1e6

	// One traced pass against the mean of the untraced ones, pass for pass:
	// taking the untraced side at its per-step minimum would count the
	// machine's noise as tracing overhead.
	var tracedWall, untracedWall int64
	for _, s := range tp.steps[sp.leadIn:] {
		tracedWall += s.wallNs
	}
	for _, p := range untraced {
		for _, s := range p.steps[sp.leadIn:] {
			untracedWall += s.wallNs
		}
	}
	m["bench.trace_overhead_pct"] = (float64(tracedWall)*float64(len(untraced))/float64(untracedWall) - 1) * 100
	var rawQ, rawS, phase []int64
	for _, p := range untraced {
		for _, rep := range p.replies[sp.leadInQ:] {
			rawQ = append(rawQ, rep.ns)
		}
		for _, s := range p.steps[sp.leadIn:] {
			rawS = append(rawS, s.wallNs)
		}
		phase = append(phase, p.stepsWallNs)
	}
	m["bench.raw_query_p99_us"] = percentile(rawQ, 0.99) / 1e3
	m["bench.raw_step_p90_ms"] = percentile(rawS, 0.9) / 1e6
	lo, hi := percentile(phase, 0), percentile(phase, 1)
	m["bench.pass_spread_pct"] = (hi - lo) / median(phase) * 100
	m["bench.loadavg_start"] = loadavg
	return m
}

// selfTimeGap reports, over the traced pass's step and request roots, the
// largest relative difference between a root's duration and the sum of the
// self times under it — 0 when children nest and never overlap.
func selfTimeGap(spans []span) float64 {
	self := selfTimes(spans)
	root := make([]int, len(spans)) // index of each span's top-level ancestor
	total := map[int]int64{}
	for i, s := range spans {
		if s.Async {
			continue
		}
		root[i] = i
		if s.Parent > 0 {
			root[i] = root[s.Parent-1]
		}
		total[root[i]] += self[i]
	}
	worst := 0.0
	for i, t := range total {
		if d := spans[i].dur(); d > 0 {
			if gap := float64(t-d) / float64(d); gap > worst {
				worst = gap
			} else if -gap > worst {
				worst = -gap
			}
		}
	}
	return worst
}
