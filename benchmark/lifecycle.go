package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"pmoctree/internal/cluster"
	"pmoctree/internal/core"
	"pmoctree/internal/fluid"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/pmem"
	"pmoctree/internal/recovery"
	"pmoctree/internal/serve"
	"pmoctree/internal/sim"
	"pmoctree/internal/solver"
	"pmoctree/internal/telemetry"
)

// failures counts operations against the number attempted. A failed step,
// recovery or query is a wrong output, not a slow one.
type failures struct {
	attempted, failed int
	notes             []string
}

func (f *failures) op(ok bool, format string, args ...any) {
	f.attempted++
	if ok {
		return
	}
	f.failed++
	if len(f.notes) < 20 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// runner holds what every pass of one run shares.
type runner struct {
	sp      spec
	nproc   int
	in      *inputs
	initial refSet // reference leaves of the initial mesh
	points  []int  // indices of the point queries, in draw order
	fail    *failures

	validated bool // Validate and IsBalanced ran on a finished pass
}

func newRunner(sp spec, seed int64, nproc int) *runner {
	if sp.workers > nproc {
		sp.workers = nproc
	}
	if sp.clients > nproc {
		sp.clients = nproc
	}
	r := &runner{sp: sp, nproc: nproc, fail: &failures{}}
	r.in = makeInputs(sp, seed, parallel.New(sp.workers))
	r.initial = refOf(r.in.initial)
	for i, q := range r.in.queries {
		if q.class == classPoint {
			r.points = append(r.points, i)
		}
	}
	return r
}

// countPass runs the lead-in steps of a pipelined workload once more under
// synchronous persist and returns them as the count window. With a persist
// worker running, the collection inside Persist races the worker's commit
// flip, so what each step frees, reuses and sweeps — and with it every device
// count and the arena high water — depends on timing; under synchronous
// persist the same mesh, fields and commit path repeat to the last digit.
func (r *runner) countPass() (*passResult, error) {
	c := *r
	c.sp.pipeline, c.sp.group, c.sp.measured = 0, 0, 0
	return c.runPass(nil)
}

// stepSample is what one step of one pass measured.
type stepSample struct {
	wallNs    int64 // mutate/solve + SetFeatures + Persist
	persistNs int64 // blocked in Tree.Persist
	digest    uint64
	nv, dram  nvbm.Stats // device deltas over the step
	exact     bool       // no persist worker or reader ran inside the deltas
	leaves    int
	solved    int
	iters     int
}

// counters is one reading of the program's public cumulative counters.
type counters struct {
	ops      core.OpStats
	fp       core.FastPathStats
	pipe     core.PipelineStats
	nv, dram nvbm.Stats
	mallocs  uint64
	allocB   uint64
}

// passResult is everything one pass measured; the aggregator folds R of
// them into the end-to-end metrics, the traced one into the per-layer ones.
type passResult struct {
	setupNs     []int64 // one per set-up repetition
	constructNs []int64
	steps       []stepSample
	win0, win1  counters // around the measured steps
	flushNs     int64
	stepsWallNs int64    // whole steps phase, for the pass-spread read-out
	phaseNs     [4]int64 // wall of set-up, steps, recover, queries, checks included

	recoverNs     []int64
	restoreNs     []int64
	firstAnswerNs []int64
	fallbacks     int

	replies   []reply
	blockNs   []int64
	leaves    int   // at the end of the count window
	hwBytes   int64 // NVBM arena high water, same moment
	liveSlots int
	hwSlots   int

	// Traced pass only.
	lagMax      uint64
	pinnedMax   int
	overlap     []float64
	liveNV      nvbm.Stats // query_live: device delta over the live window
	syncNs      []int64
	syncBytes   []uint64
	replicaNs   int64
	matBytes    int
	srcBytes    int
	volumeDrift float64
	wear        float64
	occupancy   float64
	tiles       int
	poolSnap    telemetry.Snapshot
}

// pass is the state of one lifecycle: build, step, crash/recover, query.
type pass struct {
	r    *runner
	tr   *tracer
	nv   *nvbm.Device
	dram *nvbm.Device
	ct   *core.Tree
	m    mesh
	pool *parallel.Pool

	sys  *solver.System
	st   *fluid.State
	vol0 float64

	stack   *stack
	load    *load
	version uint64 // the version the query phase asks for
	v0      uint64 // committed step after the first persist

	reg     *telemetry.Registry // traced pass only
	sink    *telemetry.TraceSink
	tel     *telemetry.Trace
	telMark int // events of tel already looked at

	res passResult
}

// committedDigest hashes codes and payloads of the committed version in
// Z-order; equal digests identify equal versions. The walk is read-only on
// the tree (no cache fills, no access accounting), so taking it between
// steps does not change what the next step does.
func committedDigest(t *core.Tree) uint64 {
	h := fnv.New64a()
	var b [8]byte
	t.ForEachCommittedNode(func(_ core.Ref, o *core.Octant) bool {
		binary.LittleEndian.PutUint64(b[:], uint64(o.Code))
		h.Write(b[:])
		for _, v := range o.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		return true
	})
	return h.Sum64()
}

func (p *pass) counters() counters {
	c := counters{ops: p.ct.Stats(), fp: p.ct.FastPath(), pipe: p.ct.PipelineStats(), nv: p.nv.Stats(), dram: p.dram.Stats()}
	if p.tr != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.mallocs, c.allocB = ms.Mallocs, ms.TotalAlloc
	}
	return c
}

// runPass runs one lifecycle on fresh state. tr is nil for the untraced
// passes the end-to-end metrics come from.
func (r *runner) runPass(tr *tracer) (res *passResult, err error) {
	p := &pass{r: r, tr: tr}
	defer p.close()
	if r.sp.workers > 1 {
		p.pool = parallel.New(r.sp.workers)
	}
	if tr != nil {
		p.reg = telemetry.NewRegistry()
		p.pool.Instrument(p.reg, "pool")
	}
	p.load = newLoad(r.sp.clients)
	t := time.Now()
	lap := func(phase int) {
		p.res.phaseNs[phase] = int64(time.Since(t))
		t = time.Now()
	}
	if err := p.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	lap(0)
	runtime.GC()
	ref, err := p.steps()
	if err != nil {
		return nil, fmt.Errorf("steps: %w", err)
	}
	lap(1)
	if r.sp.measured == 0 {
		return &p.res, nil // the count pass: nothing beyond the lead-in steps
	}
	runtime.GC()
	if err := p.recover(ref); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	lap(2)
	defer lap(3)
	if r.sp.kind == kindLive {
		p.checkReplies(func(i int) (refSet, uint64) {
			v := p.v0 + uint64(r.sp.leadIn+i/r.sp.block+1)
			return ref[v], v
		})
	} else {
		runtime.GC()
		if err := p.queries(ref); err != nil {
			return nil, fmt.Errorf("queries: %w", err)
		}
	}
	if tr != nil {
		if err := p.replicaLadder(); err != nil {
			return nil, fmt.Errorf("replica ladder: %w", err)
		}
		p.res.poolSnap = p.reg.Snapshot()
		p.res.wear = p.nv.Wear().WearImbalance()
		p.res.occupancy = p.ct.TileOccupancy()
		p.res.tiles = p.ct.LeafTiles().Tiles()
	}
	return &p.res, nil
}

func (p *pass) close() {
	if p.stack != nil {
		p.stack.close()
	}
	if p.load != nil {
		p.load.close()
	}
	if p.ct != nil {
		p.ct.Close()
	}
}

func (p *pass) newTree() {
	sp := p.r.sp
	p.nv, p.dram = nvbm.New(nvbm.NVBM, 0), nvbm.New(nvbm.DRAM, 0)
	p.ct = core.Create(core.Config{
		NVBMDevice: p.nv, DRAMDevice: p.dram, DRAMBudgetOctants: sp.c0,
		PipelineDepth: sp.pipeline, GroupCommit: sp.group,
	})
}

// setup brings one pass from nothing to a served, committed initial mesh,
// setupReps times over on fresh state; the last one is kept and stepped.
// Every repetition is one setup_s sample and one construct_mleaves_per_s item.
func (p *pass) setup() error {
	sp := p.r.sp
	for k := 0; k < sp.setupReps; k++ {
		last := k == sp.setupReps-1
		runtime.GC()
		if err := p.setupOnce(last); err != nil {
			return err
		}
		// Repetitions before the last are torn down whole. The last keeps its
		// tree, and keeps its tier only where a reader runs beside the steps
		// or on arenas of its own: on amr_ejection and flow_projection no
		// reader holds a version while the workload steps, and the tier comes
		// up again, over the stepped tree, for the query phase.
		if !last || sp.kind == kindAMR || sp.kind == kindFlow {
			p.stack.close()
			p.stack = nil
		}
		if !last {
			p.ct.Close()
		}
	}
	return nil
}

// setupOnce is one set-up: bulk construct, first persist, solver assembly,
// serving tier up, first answered query. Its sample sums the time inside
// those program calls. Only the kept repetition is traced.
func (p *pass) setupOnce(keep bool) error {
	sp, in := p.r.sp, p.r.in
	var tr *tracer
	if keep {
		tr = p.tr
	}
	tr.setGroup("setup")
	var total int64
	seg := func(name string, fn func() error) error {
		s := tr.start(name)
		t0 := time.Now()
		err := fn()
		total += int64(time.Since(t0))
		s.end()
		return err
	}

	p.newTree()
	p.m = p.ct
	if tr != nil {
		p.tel = telemetry.NewTrace()
		p.tel.SetClock(tr.now)
		p.ct.SetTracer(p.tel.Tracer(0))
		p.m = &tracedTree{Tree: p.ct, tr: tr}
		if sp.pipeline > 0 {
			p.hookWorker()
		}
	}
	before := total
	if err := seg("construct", func() error {
		_, err := p.m.ConstructFromCodes(in.initial.codes, in.initial.data, p.pool, false)
		return err
	}); err != nil {
		return err
	}
	p.res.constructNs = append(p.res.constructNs, total-before)
	_ = seg("first_persist", func() error {
		if in.field != nil {
			p.m.SetFeatures(sim.FeatureOf(in.field, sp.startStep+1))
		}
		p.m.Persist()
		p.ct.Flush()
		return nil
	})
	p.v0 = p.ct.CommittedStep()

	if sp.kind == kindFlow {
		if err := seg("solver.build", func() (err error) {
			p.sys, err = solver.Build(p.ct.LeafCodes())
			return err
		}); err != nil {
			return err
		}
		_ = seg("fluid.init", func() error {
			p.st = fluid.NewState(p.sys)
			p.st.SetPool(p.pool)
			for i := 0; i < p.sys.N(); i++ {
				if x, y, z := p.sys.Center(i); in.liquid(x, y, z) {
					p.st.VOF[i] = 1
				}
			}
			return nil
		})
		p.vol0 = p.st.LiquidVolume()
		if p.vol0 <= 0 {
			return fmt.Errorf("degenerate flow: initial liquid volume %g", p.vol0)
		}
	}

	if err := seg("serve.up", func() (err error) {
		if sp.routed {
			p.stack, err = serveRouted(p.ct, sp.keep, p.pool, p.reg, tr, false)
			p.version = p.v0
			return err
		}
		if p.stack, err = p.serveStepped(); err != nil {
			return err
		}
		return p.stack.publish()
	}); err != nil {
		return err
	}
	if sp.routed {
		p.res.matBytes, p.res.srcBytes = p.stack.shardBytes, p.nv.Size()
	}

	var first reply
	var buf bytes.Buffer
	q0 := in.queries[0]
	_ = seg("first_query", func() error {
		first = p.load.get(p.stack.url+q0.path(0), &buf)
		return nil
	})
	p.res.setupNs = append(p.res.setupNs, total)
	p.r.fail.op(first.ok, "first query: %s", first.note)
	if first.ok {
		err := p.r.initial.check(q0, buf.Bytes(), 0)
		p.r.fail.op(err == nil, "first query: %v", err)
	}
	return nil
}

// serveStepped brings the serving tier up over the pass's own tree.
func (p *pass) serveStepped() (*stack, error) {
	if p.tr != nil {
		p.sink = telemetry.NewTraceSink(p.r.sp.requests() + 64)
	}
	return serveTree(p.ct, p.r.sp.keep, p.reg, p.sink)
}

// hookWorker records the persist worker's writeback as async spans: from
// the "writeback" stage callback to the "commit" one.
func (p *pass) hookWorker() {
	var start int64
	p.ct.SetPersistHook(func(stage string) {
		switch stage {
		case "writeback":
			start = p.tr.now()
		case "commit":
			p.tr.add(span{Name: "core.writeback", Group: "worker", Start: start, End: p.tr.now(), Lane: 2, Async: true})
		}
	})
}

// adoptCoreSpans (traced pass only) turns what the tree's attached telemetry
// tracer saw during the step just ended — an existing read-out — into spans
// for the phases no call from outside can bracket: C0 evictions (Merge), the
// collection inside Persist (GC) and layout transformation (Transform).
// An event nested in one already adopted is skipped, so siblings never overlap.
func (p *pass) adoptCoreSpans() {
	if p.tel == nil {
		return
	}
	evs := p.tel.EventsFrom(p.telMark)
	p.telMark += len(evs)
	sort.Slice(evs, func(i, j int) bool { return evs[i].StartNs < evs[j].StartNs })
	covered := int64(0)
	for _, e := range evs {
		switch e.Name {
		case "Merge", "GC", "Transform":
			if e.StartNs >= covered {
				p.tr.adopt("core."+strings.ToLower(e.Name), e.StartNs, e.StartNs+e.DurNs)
				covered = e.StartNs + e.DurNs
			}
		}
	}
}

// advance runs the mutate/solve part of step i (0-based within the pass);
// the caller persists.
func (p *pass) advance(i int, s *stepSample) error {
	sp, in := p.r.sp, p.r.in
	switch sp.kind {
	case kindAMR, kindLive:
		step := sp.startStep + 1 + i
		span := p.tr.start("sim.step")
		sc := sim.StepFieldPool(p.m, in.field, step, sp.maxLevel, p.pool)
		span.end()
		p.m.SetFeatures(sim.FeatureOf(in.field, step+1))
		s.leaves, s.solved = sc.Leaves, sc.Solved
	case kindFlow:
		dt := math.Min(p.st.CFL()*0.5, 5e-3)
		span := p.tr.start("fluid.step")
		res, err := p.st.Step(dt)
		span.end()
		if err != nil {
			return err
		}
		s.iters, s.leaves = res.Iterations, p.sys.N()
		span = p.tr.start("fluid.commit")
		p.commitFields()
		span.end()
	case kindIngest:
		set := in.sets[(i+1)%len(in.sets)]
		if _, err := p.m.ConstructFromCodes(set.codes, set.data, p.pool, false); err != nil {
			return err
		}
		s.leaves = len(set.codes)
	}
	return nil
}

// commitFields stores the flow fields into the octree through the tile
// scatter: the gathered SoA image is patched in place, changed cells marked,
// and one scatter writes them back (field-only copy-on-write, no structural
// change, so the store and the leaf index stay valid step over step).
func (p *pass) commitFields() {
	ts := p.m.LeafTiles()
	f0, f1, f3 := ts.F[0], ts.F[1], ts.F[3]
	for i := range f0 {
		if f0[i] != p.st.VOF[i] || f1[i] != p.st.P[i] || f3[i] != p.st.W[i] {
			f0[i], f1[i], f3[i] = p.st.VOF[i], p.st.P[i], p.st.W[i]
			ts.MarkDirty(i)
		}
	}
	p.m.ScatterLeafTiles(ts)
}

// steps runs lead-in and measured steps and returns the reference leaves of
// the final committed version (per published version on query_live, where
// the client runs beside the measured steps).
func (p *pass) steps() (refs map[uint64]refSet, err error) {
	sp := p.r.sp
	n := sp.stepsPerPass()
	p.res.steps = make([]stepSample, n)
	refs = map[uint64]refSet{}
	if sp.kind == kindFlow {
		// solver.Build sorted nothing: cell i of the system must be cell i
		// of the tile store for commitFields to index both with one i.
		codes := p.ct.LeafTiles().Codes()
		for i, c := range p.sys.Codes() {
			if codes[i] != c {
				return nil, fmt.Errorf("tile store and solver disagree on cell %d", i)
			}
		}
	}

	var lc *liveClient
	// endLeadIn closes the quiesced count window and opens the measured one.
	endLeadIn := func() error {
		p.ct.Flush()
		if sp.quiesced() {
			if err := p.arenaUsage(sp.leadIn); err != nil {
				return err
			}
		}
		p.res.win0 = p.counters()
		if sp.kind == kindLive {
			lc = p.startLiveClient()
		}
		return nil
	}
	if p.tel != nil {
		p.telMark = p.tel.Len() // set-up's events belong to no step
	}
	phase := time.Now()
	for i := 0; i <= n; i++ {
		if i == sp.leadIn {
			if err := endLeadIn(); err != nil {
				return nil, err
			}
		}
		if i == n {
			break
		}
		s := &p.res.steps[i]
		p.tr.setGroup(fmt.Sprintf("step-%d", i))
		nv0, dram0 := p.nv.Stats(), p.dram.Stats()
		t0 := time.Now()
		root := p.tr.start("step")
		if err := p.advance(i, s); err != nil {
			root.end()
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		if p.tr != nil && i < sp.leadIn {
			// Version overlap has to be read while V(i) is still the working
			// version, inside the step. The walk is instrumentation, so the
			// traced pass takes it on lead-in steps only and the measured
			// steps carry nothing but spans.
			b := p.tr.start("bench.sample")
			p.res.overlap = append(p.res.overlap, p.ct.VersionStats().OverlapRatio)
			b.end()
		}
		t1 := time.Now()
		p.m.Persist()
		t2 := time.Now()
		root.end()
		p.adoptCoreSpans()
		s.wallNs, s.persistNs = int64(t2.Sub(t0)), int64(t2.Sub(t1))
		if lag := p.ct.CommittedStep() - p.ct.DurableStep(); lag > p.res.lagMax {
			p.res.lagMax = lag
		}
		leadIn := i < sp.leadIn
		if leadIn && sp.quiesced() {
			p.ct.Flush()
		}
		s.nv, s.dram = p.nv.Stats().Sub(nv0), p.dram.Stats().Sub(dram0)
		s.exact = sp.pipeline == 0 && (sp.kind != kindLive || leadIn)
		s.digest = committedDigest(p.ct)

		if sp.kind == kindLive {
			if j := i - sp.leadIn; j >= sp.keep {
				<-lc.done // the version this publish evicts must be fully answered
			}
			ps := p.tr.start("serve.publish")
			err := p.stack.publish()
			ps.end()
			if err != nil {
				return nil, fmt.Errorf("publish step %d: %w", i, err)
			}
			if n := p.ct.PinnedVersions(); n > p.res.pinnedMax {
				p.res.pinnedMax = n
			}
			if !leadIn {
				v := p.ct.CommittedStep()
				refs[v] = captureRef(p.ct)
				lc.published <- v
			}
		}
	}
	if lc != nil {
		<-lc.finished
		p.res.liveNV = p.nv.Stats().Sub(p.res.win0.nv)
	}
	t := time.Now()
	fs := p.tr.start("core.flush")
	p.ct.Flush()
	fs.end()
	p.res.flushNs = int64(time.Since(t))
	p.res.win1 = p.counters()
	p.res.stepsWallNs = int64(time.Since(phase))

	if !p.r.validated {
		// Once per run: every other pass is held to this one's digests.
		err = p.ct.Validate()
		p.r.fail.op(err == nil && p.ct.IsBalanced(), "after step %d: validate %v, balanced %v", n-1, err, p.ct.IsBalanced())
		p.r.validated = true
	}
	if sp.kind == kindFlow {
		vol := p.st.LiquidVolume()
		p.res.volumeDrift = math.Abs(vol-p.vol0) / p.vol0
		iters := 0
		for _, s := range p.res.steps {
			iters += s.iters
		}
		p.r.fail.op(vol > 0 && iters > 0 && p.res.volumeDrift < 0.05, "flow degenerate: volume %g (was %g), %d CG iterations", vol, p.vol0, iters)
	}

	final := p.ct.CommittedStep()
	if sp.kind == kindIngest {
		refs[final] = refOf(p.r.in.sets[n%len(p.r.in.sets)])
	} else if refs[final] == nil {
		refs[final] = captureRef(p.ct)
	}
	if !sp.quiesced() {
		if err := p.arenaUsage(n); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// arenaUsage reads the NVBM arena's high-water mark after `done` steps, with
// device accounting off so that opening the arena charges nothing to the run.
func (p *pass) arenaUsage(done int) error {
	p.nv.SetAccounting(false)
	arena, err := pmem.OpenArena(p.nv)
	p.nv.SetAccounting(true)
	if err != nil {
		return err
	}
	p.res.leaves = p.res.steps[done-1].leaves
	p.res.hwSlots, p.res.liveSlots = int(arena.HighWater()), arena.LiveCount()
	p.res.hwBytes = int64(arena.HighWater()) * int64(arena.Stride())
	return nil
}

// liveClient is query_live's reader: one closed-loop client that issues a
// fixed quota of explicit-version queries against every version the writer
// publishes, while the writer keeps stepping.
type liveClient struct {
	published chan uint64   // one send per measured step
	done      chan struct{} // one send per answered quota
	finished  chan struct{}
}

func (p *pass) startLiveClient() *liveClient {
	sp := p.r.sp
	// Both channels are sized to the number of sends, so neither side ever
	// blocks on the other except where the keep window demands it.
	lc := &liveClient{published: make(chan uint64, sp.measured), done: make(chan struct{}, sp.measured), finished: make(chan struct{})}
	// Versions are consecutive commits, so every URL is known before the
	// first live step: string building stays out of the live window.
	urls := make([]string, sp.queries)
	for i := range urls {
		urls[i] = p.stack.url + p.r.in.queries[i].path(p.v0+uint64(sp.leadIn+i/sp.block+1))
	}
	p.res.replies = make([]reply, sp.queries)
	p.res.blockNs = make([]int64, sp.measured)
	go func() {
		defer close(lc.finished)
		for b := 0; b < sp.measured; b++ {
			<-lc.published
			p.res.blockNs[b] = p.load.runBlock(urls, b*sp.block, (b+1)*sp.block, p.res.replies, p.tr)
			lc.done <- struct{}{}
		}
	}()
	return lc
}

// recoverAsks is the number of distinct points a restart is asked first.
// Everything else about a restart is the same work on the same image, so a
// restart's identity is the point it answers: cycle c asks point c mod
// recoverAsks, and spec.cycles is a multiple of it.
const recoverAsks = 4

// recover crashes the pass's device with working mutations in flight and
// restarts from the image, cycles times: restore, publish, first answer.
func (p *pass) recover(refs map[uint64]refSet) error {
	sp := p.r.sp
	var s stepSample
	p.tr.setGroup("inflight")
	if err := p.advance(sp.stepsPerPass(), &s); err != nil {
		return err
	}
	// The emulated power cut: a copy of the device as it stands, which every
	// cycle restarts from. Restoring an undamaged image writes nothing to it
	// (checked below), so the cycles see the same bytes.
	img := p.nv.Clone()
	writes := img.Stats().Writes
	final := p.ct.CommittedStep()
	want := p.res.steps[len(p.res.steps)-1].digest
	ref := refs[final]
	for c := 0; c < sp.cycles; c++ {
		runtime.GC() // every restart begins on the same heap
		q := p.r.in.queries[p.r.points[c%recoverAsks]]
		p.tr.setGroup(fmt.Sprintf("recover-%d", c))
		root := p.tr.start("recover")
		t0 := time.Now()
		s1 := p.tr.start("core.restore")
		rt, rep, err := core.RestoreWithReport(core.Config{NVBMDevice: img, DRAMBudgetOctants: sp.c0})
		s1.end()
		if err != nil {
			root.end()
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		t1 := time.Now()
		s2 := p.tr.start("serve.publish")
		cat := serve.NewCatalog(rt, serve.Config{Keep: sp.keep})
		snap, err := cat.Publish()
		s2.end()
		if err != nil {
			root.end()
			return fmt.Errorf("cycle %d: publish: %w", c, err)
		}
		t2 := time.Now()
		s3 := p.tr.start("serve.first_answer")
		got, err := snap.Point(q.p[0], q.p[1], q.p[2])
		s3.end()
		t3 := time.Now()
		root.end()
		p.res.recoverNs = append(p.res.recoverNs, int64(t3.Sub(t0)))
		p.res.restoreNs = append(p.res.restoreNs, int64(t1.Sub(t0)))
		p.res.firstAnswerNs = append(p.res.firstAnswerNs, int64(t3.Sub(t2)))
		p.res.fallbacks += rep.Fallbacks

		// The digest walk is the expensive check; one cycle per pass pays it.
		ok := err == nil && rep.ChosenStep == final && (c > 0 || committedDigest(rt) == want)
		if ok {
			ok = false
			for _, l := range ref {
				if l.contains(q.p) {
					ok = got.Code == l.code && got.Data == l.data
					break
				}
			}
		}
		p.r.fail.op(ok, "recover cycle %d: restored step %d (want %d), first answer %v err %v", c, rep.ChosenStep, final, got.Code, err)
		snap.Close()
		cat.Close()
		rt.Close()
	}
	p.r.fail.op(img.Stats().Writes == writes, "recover: restarts wrote %d times to the crash image, later cycles saw another image than the first", img.Stats().Writes-writes)
	return nil
}

// queries replays the seeded mix against the serving tier in closed loop
// and checks every reply; a 1 % sample is replayed by brute force.
func (p *pass) queries(refs map[uint64]refSet) error {
	sp := p.r.sp
	ref := p.r.initial // the routed tier serves the initial mesh's shards
	if !sp.routed {
		var err error
		if p.stack, err = p.serveStepped(); err != nil {
			return err
		}
		ps := p.tr.start("serve.publish")
		err = p.stack.publish()
		ps.end()
		if err != nil {
			return err
		}
		p.version = p.ct.CommittedStep()
		ref = refs[p.version]
	}
	n := sp.requests()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = p.stack.url + p.r.in.queries[sp.queryOf(i)].path(p.version)
	}
	p.res.replies = make([]reply, n)
	for lo := 0; lo < n; lo += sp.block {
		hi := lo + sp.block
		if hi > n {
			hi = n
		}
		p.res.blockNs = append(p.res.blockNs, p.load.runBlock(urls, lo, hi, p.res.replies, p.tr))
	}
	p.checkReplies(func(int) (refSet, uint64) { return ref, p.version })
	return nil
}

// checkReplies counts every reply as an operation: non-200 or degraded
// fails, and each sampled body must equal the brute-force replay at the
// version it was asked of.
func (p *pass) checkReplies(refOf func(i int) (refSet, uint64)) {
	for i, rep := range p.res.replies {
		q := p.r.in.queries[p.r.sp.queryOf(i)]
		ok, note := rep.ok, rep.note
		if ok && rep.body != nil {
			ref, version := refOf(i)
			if err := ref.check(q, rep.body, version); err != nil {
				ok, note = false, err.Error()
			}
		}
		p.r.fail.op(ok, "request %d (%s): %s", i, classNames[q.class], note)
	}
	if p.tr != nil {
		p.requestSpans()
	}
}

// requestSpans turns the traced pass's replies into spans: the client's
// view on top, and under it what the handler's own trace sink retained for
// the request (joined by X-Trace-Id): queue wait, index build, leaf scan,
// device read. The router does not propagate trace ids, so a routed request
// is one client span.
func (p *pass) requestSpans() {
	for i, rep := range p.res.replies {
		q := p.r.in.queries[p.r.sp.queryOf(i)]
		group := fmt.Sprintf("req-%d", i)
		lane := 10 + rep.client
		parent := p.tr.add(span{Name: "client." + classNames[q.class], Group: group, Start: rep.start, End: rep.start + rep.ns, Lane: lane})
		if p.sink == nil || rep.traceID == 0 {
			continue
		}
		rt, ok := p.sink.Get(rep.traceID)
		if !ok {
			continue
		}
		// The handler's interval lies inside the client's; where exactly is
		// not observable from outside, so it is centred.
		h0 := rep.start + (rep.ns-rt.TotalNs)/2
		hseq := p.tr.add(span{Name: "serve.handler", Group: group, Parent: parent, Start: h0, End: h0 + rt.TotalNs, Lane: lane})
		for _, s := range rt.Spans {
			p.tr.add(span{Name: "serve." + s.Name, Group: group, Parent: hseq, Start: h0 + s.StartNs, End: h0 + s.StartNs + s.DurNs, Lane: lane})
		}
	}
}

// replicaLadder (traced pass only) times remote-replica upkeep beside the
// lifecycle: after a full first sync, two more commits each ship their
// delta frame, then the replica image is pulled back and restored. (Two,
// because every bulk ingest takes a fresh arena run and the arena is capped.)
func (p *pass) replicaLadder() error {
	sp := p.r.sp
	if p.stack != nil && !sp.routed {
		p.stack.close() // release the pins before stepping on
		p.stack = nil
	}
	mgr := recovery.NewReplicaManager(2, 0, cluster.Gemini())
	for k := 0; k < 3; k++ {
		p.tr.setGroup(fmt.Sprintf("replica-%d", k))
		if k > 0 {
			// k == 1 commits the mutation the recover phase left in flight.
			if k > 1 {
				var s stepSample
				if err := p.advance(sp.stepsPerPass()+k-1, &s); err != nil {
					return err
				}
			}
			p.ct.Persist()
			p.ct.Flush()
		}
		before := mgr.ShippedBytes
		t := time.Now()
		s := p.tr.start("recovery.sync")
		err := mgr.Sync(0, p.nv)
		s.end()
		if err != nil {
			return err
		}
		if k > 0 {
			p.res.syncNs = append(p.res.syncNs, int64(time.Since(t)))
			p.res.syncBytes = append(p.res.syncBytes, mgr.ShippedBytes-before)
		}
	}
	t := time.Now()
	s := p.tr.start("recovery.replica_recover")
	img, _, err := mgr.Recover(0)
	if err != nil {
		s.end()
		return err
	}
	rt, _, err := core.RestoreWithReport(core.Config{NVBMDevice: img, DRAMBudgetOctants: sp.c0})
	s.end()
	p.res.replicaNs = int64(time.Since(t))
	if err != nil {
		return err
	}
	p.r.fail.op(committedDigest(rt) == committedDigest(p.ct), "replica restore: digest differs from the primary's committed version")
	rt.Close()
	return nil
}
