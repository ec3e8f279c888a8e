package fault

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmoctree/internal/cluster"
	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/recovery"
	"pmoctree/internal/router"
	"pmoctree/internal/serve"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

// RouterChaosConfig parameterizes the sharded-serving chaos soak: one
// writer materializing every commit into N span arenas, and a router over
// N in-process shard servers, one per arena, each with a recovery
// replica. Shard servers are killed and restarted (sometimes
// mid-scatter, via a call-count fuse) while queries flow.
type RouterChaosConfig struct {
	Seed            int64
	Shards          int // shard servers (default 3, min 2)
	Rounds          int // soak rounds; each commits one writer step (default 18)
	QueriesPerRound int // routed queries per round (default 8)
	MaxLevel        uint8
	Keep            int // versions each shard catalog retains (default 3)
	ReplicaEvery    int // replica sync/rebind cadence in rounds, from round 1 (default 2)
	// Recorder, when non-nil, receives the soak's kill/restart/refresh
	// events plus the router's own breaker/fallback/stale flight events —
	// the black box for a failed run.
	Recorder *telemetry.FlightRecorder
	// Registry, when non-nil, receives the router's metrics.
	Registry *telemetry.Registry
}

func (c RouterChaosConfig) withDefaults() RouterChaosConfig {
	if c.Shards < 2 {
		c.Shards = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 18
	}
	if c.QueriesPerRound <= 0 {
		c.QueriesPerRound = 8
	}
	if c.MaxLevel == 0 {
		c.MaxLevel = 4
	}
	if c.Keep <= 0 {
		c.Keep = 3
	}
	if c.ReplicaEvery <= 0 {
		c.ReplicaEvery = 2
	}
	return c
}

// RouterChaosReport is the outcome of a router chaos soak. Digest covers
// the reference commit history and the seed-driven chaos schedule, both
// pure functions of the config — two same-seed runs must produce equal
// digests. Query-side tallies are NOT digested: scatter goroutine timing
// legitimately varies which fallback path serves a part.
type RouterChaosReport struct {
	Seed   int64
	Shards int
	Rounds int

	Kills            int // immediate shard kills
	FuseKills        int // call-count fuses armed (fire mid-scatter)
	Restarts         int // shard restarts (catalog history lost)
	ReplicaRefreshes int // replica images restored and rebound

	Queries        uint64
	Served         uint64 // queries answered (degraded or not)
	Unavailable    uint64 // queries that failed outright
	DegradedServes uint64 // answers labeled degraded/stale_version
	WrongAnswers   uint64 // answers that diverged from single-tree replay

	Retries          uint64 // from router metrics
	Hedges           uint64
	ReplicaFallbacks uint64
	StaleFallbacks   uint64
	BreakerOpens     uint64

	FinalStep    uint64  // reference committed step at run end
	Availability float64 // Served / Queries
	Digest       uint64  // FNV-64a over commit history + chaos schedule
}

// String renders the report as a stable, diffable summary.
func (r RouterChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router-chaos seed=%d shards=%d rounds=%d\n", r.Seed, r.Shards, r.Rounds)
	fmt.Fprintf(&b, "  chaos: kills=%d fuse_kills=%d restarts=%d replica_refreshes=%d\n",
		r.Kills, r.FuseKills, r.Restarts, r.ReplicaRefreshes)
	fmt.Fprintf(&b, "  queries: total=%d served=%d unavailable=%d degraded=%d wrong=%d\n",
		r.Queries, r.Served, r.Unavailable, r.DegradedServes, r.WrongAnswers)
	fmt.Fprintf(&b, "  paths: retries=%d hedges=%d replica=%d stale=%d breaker_opens=%d\n",
		r.Retries, r.Hedges, r.ReplicaFallbacks, r.StaleFallbacks, r.BreakerOpens)
	fmt.Fprintf(&b, "  final: step=%d availability=%.4f digest=%016x\n", r.FinalStep, r.Availability, r.Digest)
	return b.String()
}

// routerChaosSimSteps is the writer's fixed nominal droplet duration:
// step s maps to time s/Steps.
const routerChaosSimSteps = 64

// chaosWriter is the soak's one simulation: a deterministic droplet tree
// that is never killed. Its catalog keeps every committed version, so it
// is also the reference every routed answer is replayed against.
type chaosWriter struct {
	tree *core.Tree
	d    *sim.Droplet
	step int
	cat  *serve.Catalog
}

func newChaosWriter(keep int, seed int64) *chaosWriter {
	w := &chaosWriter{
		tree: core.Create(core.Config{
			NVBMDevice: nvbm.New(nvbm.NVBM, 0),
			DRAMDevice: nvbm.New(nvbm.DRAM, 0),
			Seed:       seed,
		}),
		d: sim.NewDroplet(sim.DropletConfig{Steps: routerChaosSimSteps}),
	}
	w.tree.SetFeatures(w.d.Feature(1))
	w.cat = serve.NewCatalog(w.tree, serve.Config{Keep: keep})
	return w
}

// advance commits one more sim step and publishes it.
func (w *chaosWriter) advance(maxLevel uint8) {
	w.step++
	sim.Step(w.tree, w.d, w.step, maxLevel)
	w.tree.SetFeatures(w.d.Feature(w.step + 1))
	w.tree.Persist()
	if snap, err := w.cat.Publish(); err == nil {
		snap.Close()
	}
}

// chaosServer is one serving process: a catalog and scheduler behind a
// local backend, replaced whole when the process restarts or rebinds. It
// reports down until it first serves a catalog, and gate (when set) runs
// before every backend call.
type chaosServer struct {
	name string
	gate func() error

	mu    sync.RWMutex
	cat   *serve.Catalog
	sched *serve.Scheduler
	be    *router.LocalBackend
}

// serve replaces the process's catalog with cat, closing the old one and
// with it any pinned history.
func (s *chaosServer) serve(cat *serve.Catalog) {
	sched := serve.NewScheduler(serve.SchedulerConfig{})
	s.mu.Lock()
	oldCat, oldSched := s.cat, s.sched
	s.cat, s.sched = cat, sched
	s.be = router.NewLocalBackend(s.name, cat, sched)
	s.mu.Unlock()
	if oldCat != nil {
		oldSched.Close()
		oldCat.Close()
	}
}

// publish publishes the tree's committed version in the serving catalog.
func (s *chaosServer) publish() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if snap, err := s.cat.Publish(); err == nil {
		snap.Close()
	}
}

func (s *chaosServer) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cat != nil {
		s.sched.Close()
		s.cat.Close()
	}
}

func (s *chaosServer) backend() (router.Backend, error) {
	if s.gate != nil {
		if err := s.gate(); err != nil {
			return nil, err
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.be == nil {
		return nil, fmt.Errorf("%w: %s never served", router.ErrBackendDown, s.name)
	}
	return s.be, nil
}

func (s *chaosServer) Name() string { return s.name }

func (s *chaosServer) Query(ctx context.Context, v uint64, q serve.Query) (serve.Result, error) {
	be, err := s.backend()
	if err != nil {
		return serve.Result{}, err
	}
	return be.Query(ctx, v, q)
}

func (s *chaosServer) Versions(ctx context.Context) ([]uint64, error) {
	be, err := s.backend()
	if err != nil {
		return nil, err
	}
	return be.Versions(ctx)
}

func (s *chaosServer) Probe(ctx context.Context) error {
	be, err := s.backend()
	if err != nil {
		return err
	}
	return be.Probe(ctx)
}

// chaosShard is one shard: a materialized span arena (a core.Tree on its
// own device, into which the writer materializes every commit), the
// server over it, and the server's recovery replica. Killing stops the
// server, not the arena: the gate flips (the process stops answering)
// while the writer keeps materializing, because the persistent image
// outlives the process. Restarting rebuilds the catalog over the arena's
// committed version, so pinned history is lost and only the newest commit
// comes back — the version skew that drives stale fallback. A fuse kills
// the server after a fixed number of further backend calls, landing
// mid-scatter.
type chaosShard struct {
	id      int
	keep    int
	span    serve.KeyRange
	dev     *nvbm.Device
	tree    *core.Tree
	server  *chaosServer
	replica *chaosServer

	down atomic.Bool
	fuse atomic.Int64
}

func newChaosShard(id int, span serve.KeyRange, keep int, seed int64) *chaosShard {
	s := &chaosShard{id: id, keep: keep, span: span, dev: nvbm.New(nvbm.NVBM, 0)}
	s.tree = core.Create(core.Config{
		NVBMDevice:     s.dev,
		DRAMDevice:     nvbm.New(nvbm.DRAM, 0),
		Seed:           seed,
		RetainVersions: 2,
	})
	s.server = &chaosServer{name: fmt.Sprintf("shard%d", id), gate: s.gate}
	s.server.serve(serve.NewCatalog(s.tree, serve.Config{Keep: keep}))
	s.replica = &chaosServer{name: fmt.Sprintf("shard%d-replica", id)}
	return s
}

// materialize commits the writer's committed version of the shard's span
// into the arena; a live server publishes it.
func (s *chaosShard) materialize(src *core.Tree) error {
	if _, err := router.MaterializeInto(s.tree, src, s.span, nil); err != nil {
		return err
	}
	if !s.down.Load() {
		s.server.publish()
	}
	return nil
}

// kill stops the server from answering, optionally after `fuse` more
// backend calls (a mid-scatter death).
func (s *chaosShard) kill(fuse int64) {
	if fuse > 0 {
		s.fuse.Store(fuse)
		return
	}
	s.down.Store(true)
}

// restart brings the server back over a catalog that publishes only the
// arena's current committed version.
func (s *chaosShard) restart() {
	cat := serve.NewCatalog(s.tree, serve.Config{Keep: s.keep})
	if snap, err := cat.Publish(); err == nil {
		snap.Close()
	}
	s.server.serve(cat)
	s.fuse.Store(0)
	s.down.Store(false)
}

// rebindReplica restores a tree from the replica image and serves its
// retained ring oldest-first, then its committed version. Called from
// the soak loop only.
func (s *chaosShard) rebindReplica(img *nvbm.Device, seed int64) error {
	t, err := core.Restore(core.Config{
		NVBMDevice:     img,
		DRAMDevice:     nvbm.New(nvbm.DRAM, 0),
		Seed:           seed,
		RetainVersions: 2,
	})
	if err != nil {
		return err
	}
	cat := serve.NewCatalog(t, serve.Config{Keep: 3})
	vs := t.RetainedVersions()
	for i := len(vs) - 1; i >= 0; i-- {
		if snap, err := cat.PublishVersion(vs[i].Root, vs[i].Step); err == nil {
			snap.Close()
		}
	}
	snap, err := cat.Publish()
	if err != nil {
		cat.Close()
		return err
	}
	snap.Close()
	s.replica.serve(cat)
	return nil
}

// gate applies the fuse and the kill switch before every server call.
func (s *chaosShard) gate() error {
	for {
		f := s.fuse.Load()
		if f <= 0 {
			break
		}
		if s.fuse.CompareAndSwap(f, f-1) {
			if f == 1 {
				s.down.Store(true)
			}
			break
		}
	}
	if s.down.Load() {
		return fmt.Errorf("%w: shard%d killed", router.ErrBackendDown, s.id)
	}
	return nil
}

// RunRouterChaos soaks the query router against a fleet of in-process
// shard servers over materialized span arenas while the seed-driven
// schedule kills and restarts the servers — at least one is down whenever
// queries run, and some kills are armed as call-count fuses that fire
// between the parts of a single scattered query. A dead shard's span
// fails over to its recovery replica, then to the stale retarget. Every
// answer is checked against the writer's own tree:
//
//   - a non-degraded answer must be bit-identical to a single-tree replay
//     of the served version (regions and points exactly; aggregates via
//     the same per-span merge the router performs);
//   - a degraded answer must carry the stale_version marker, serve a
//     strictly older version than requested, and STILL be bit-identical
//     to the replay of that (really committed) version.
//
// Any divergence counts as a wrong answer and fails the run.
func RunRouterChaos(cfg RouterChaosConfig) (RouterChaosReport, error) {
	cfg = cfg.withDefaults()
	rep := RouterChaosReport{Seed: cfg.Seed, Shards: cfg.Shards, Rounds: cfg.Rounds}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// schedule digest: commit history plus every chaos decision, all pure
	// functions of the seed.
	hist := fnv.New64a()
	mix := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			hist.Write(b[:])
		}
	}

	// The writer keeps every version it ever commits.
	ref := newChaosWriter(cfg.Rounds+2, cfg.Seed)
	defer ref.cat.Close()

	spans := router.UniformSpans(cfg.Shards)
	shards := make([]*chaosShard, cfg.Shards)
	shardCfgs := make([]router.ShardConfig, cfg.Shards)
	for i := range shards {
		shards[i] = newChaosShard(i, spans[i], cfg.Keep, cfg.Seed)
		shardCfgs[i] = router.ShardConfig{Primary: shards[i].server, Replica: shards[i].replica}
		defer shards[i].server.close()
		defer shards[i].replica.close()
	}

	mgr := recovery.NewReplicaManager(cfg.Shards+1, 0, cluster.Gemini())

	// The breaker runs on a virtual clock advanced one second per round:
	// open quiet periods elapse on the round cadence (deterministically),
	// not on however fast the host happens to execute the soak.
	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	breakerNow := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	tickClock := func() {
		clockMu.Lock()
		clock = clock.Add(time.Second)
		clockMu.Unlock()
	}

	r, err := router.New(router.Config{
		Shards:     shardCfgs,
		MaxRetries: 2,
		HedgeDelay: 2 * time.Millisecond,
		Breaker:    router.BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Second, HalfOpenSuccesses: 1, Now: breakerNow},
		Health:     router.HealthConfig{DownAfter: 2, ReviveAfter: 1, DegradeAfter: 3, ClearAfter: 2},
		Registry:   cfg.Registry,
		Recorder:   cfg.Recorder,
		Sleep:      func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	})
	if err != nil {
		return rep, err
	}
	defer r.Close()
	ctx := context.Background()

	// refSteps tracks every committed writer version, newest last; every
	// shard arena, server and replica holds a subset.
	var refSteps []uint64

	// commit advances the writer one step and materializes it into every
	// shard arena, live server or not.
	commit := func() error {
		ref.advance(cfg.MaxLevel)
		step, digest := ref.tree.CommittedStep(), commitDigest(ref.tree)
		refSteps = append(refSteps, step)
		mix(digest)
		cfg.Recorder.Record(telemetry.FlightEvent{Kind: "commit", Step: step, Value: digest})
		for _, s := range shards {
			if err := s.materialize(ref.tree); err != nil {
				return fmt.Errorf("materialize shard%d at step %d: %w", s.id, step, err)
			}
		}
		return nil
	}

	kill := func(id int, fuse int64) {
		shards[id].kill(fuse)
		if fuse > 0 {
			rep.FuseKills++
			mix(2, uint64(id), uint64(fuse))
			cfg.Recorder.Record(telemetry.FlightEvent{Kind: "shard_fuse", Step: uint64(id), Value: uint64(fuse)})
		} else {
			rep.Kills++
			mix(1, uint64(id))
			cfg.Recorder.Record(telemetry.FlightEvent{Kind: "shard_kill", Step: uint64(id)})
		}
	}
	restart := func(id int) {
		shards[id].restart()
		rep.Restarts++
		mix(3, uint64(id))
		cfg.Recorder.Record(telemetry.FlightEvent{Kind: "shard_restart", Step: uint64(id), Value: shards[id].tree.CommittedStep()})
	}

	pickFrom := func(ids []int) int { return ids[rng.Intn(len(ids))] }
	partition := func() (alive, dead []int) {
		for i, s := range shards {
			if s.down.Load() {
				dead = append(dead, i)
			} else {
				alive = append(alive, i)
			}
		}
		return
	}
	armKill := func(id int) {
		if rng.Intn(2) == 0 {
			kill(id, 0)
		} else {
			kill(id, int64(1+rng.Intn(4)))
		}
	}

	for round := 1; round <= cfg.Rounds; round++ {
		tickClock()
		if err := commit(); err != nil {
			return rep, fmt.Errorf("round %d: %w", round, err)
		}

		// Replica sync on cadence: every shard arena ships a delta frame
		// and every replica restores its image and rebinds, so replica
		// backends serve real (lagging) committed versions.
		if (round-1)%cfg.ReplicaEvery == 0 {
			for id, s := range shards {
				if err := mgr.Sync(id, s.dev); err != nil {
					return rep, fmt.Errorf("round %d: replica sync shard%d: %w", round, id, err)
				}
				img, _, err := mgr.Recover(id)
				if err != nil {
					return rep, fmt.Errorf("round %d: replica recover shard%d: %w", round, id, err)
				}
				if err := s.rebindReplica(img, cfg.Seed); err != nil {
					return rep, fmt.Errorf("round %d: replica rebind shard%d: %w", round, id, err)
				}
				rep.ReplicaRefreshes++
				mix(4, uint64(id))
				cfg.Recorder.Record(telemetry.FlightEvent{Kind: "replica_refresh", Step: uint64(id)})
			}
		}

		// Chaos schedule: keep at least one shard down whenever queries
		// run, never leave fewer than one alive.
		alive, dead := partition()
		switch {
		case len(dead) == 0:
			armKill(pickFrom(alive))
		case len(dead) >= 2:
			restart(pickFrom(dead))
		default: // exactly one down
			switch rng.Intn(3) {
			case 0: // rotate the outage
				next := pickFrom(alive)
				restart(dead[0])
				armKill(next)
			case 1: // widen the outage, keeping one survivor
				if len(alive) > 1 {
					armKill(pickFrom(alive))
				}
			}
		}
		// Fuses count as "down" for the invariant only once they fire;
		// ensure something is hard-down before querying.
		if _, dead := partition(); len(dead) == 0 {
			alive, _ := partition()
			if len(alive) > 1 {
				kill(pickFrom(alive), 0)
			}
		}
		r.Probe(ctx)

		for q := 0; q < cfg.QueriesPerRound; q++ {
			// 1-in-4 queries pin one of the three newest writer versions;
			// the rest ask for Latest.
			version := uint64(router.Latest)
			if rng.Intn(4) == 0 {
				back := rng.Intn(3)
				if back >= len(refSteps) {
					back = len(refSteps) - 1
				}
				version = refSteps[len(refSteps)-1-back]
			}
			rep.Queries++
			wrong, served, degraded, err := runRouterChaosQuery(ctx, r, ref.cat, rng, version)
			if err != nil {
				rep.Unavailable++
				cfg.Recorder.Record(telemetry.FlightEvent{Kind: "query_unavailable", Step: uint64(round), Detail: err.Error()})
				continue
			}
			rep.Served++
			if degraded {
				rep.DegradedServes++
			}
			if wrong != "" {
				rep.WrongAnswers++
				cfg.Recorder.Record(telemetry.FlightEvent{Kind: "wrong_answer", Step: served, Detail: wrong})
			}
		}
	}

	rep.FinalStep = ref.tree.CommittedStep()
	rep.Digest = hist.Sum64()
	if rep.Queries > 0 {
		rep.Availability = float64(rep.Served) / float64(rep.Queries)
	}
	if cfg.Registry != nil {
		rep.Retries = cfg.Registry.Counter("router.retries").Value()
		rep.Hedges = cfg.Registry.Counter("router.hedges").Value()
		rep.ReplicaFallbacks = cfg.Registry.Counter("router.fallback.replica").Value()
		rep.StaleFallbacks = cfg.Registry.Counter("router.fallback.stale").Value()
		rep.BreakerOpens = cfg.Registry.Counter("router.breaker.opens").Value()
	}
	if rep.WrongAnswers > 0 {
		return rep, fmt.Errorf("router chaos: %d wrong answers (of %d served)", rep.WrongAnswers, rep.Served)
	}
	return rep, nil
}

// runRouterChaosQuery fires one routed query and verifies the answer
// against the reference tree. It returns a non-empty `wrong` description
// when the answer diverges from the single-tree replay of the served
// version, or violates the degraded-labeling contract.
func runRouterChaosQuery(ctx context.Context, r *router.Router, ref *serve.Catalog, rng *rand.Rand, version uint64) (wrong string, served uint64, degraded bool, err error) {
	kind := rng.Intn(3)
	var (
		pt  [3]float64
		box serve.Box
	)
	for d := 0; d < 3; d++ {
		pt[d] = rng.Float64()
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		if a == b {
			b = a + 1e-6
		}
		box.Min[d], box.Max[d] = a, b
	}
	field := rng.Intn(2)

	check := func(env router.Envelope, verify func(snap *serve.Snapshot) string) (string, uint64, bool, error) {
		if !env.Degraded && env.ServedStep != env.RequestedStep {
			return fmt.Sprintf("unlabeled version drift: served %d, requested %d", env.ServedStep, env.RequestedStep), env.ServedStep, false, nil
		}
		if env.Degraded {
			ok := false
			for _, reason := range env.Reasons {
				if reason == "stale_version" {
					ok = true
				}
			}
			if !ok || env.ServedStep >= env.RequestedStep {
				return fmt.Sprintf("bad degraded labeling: served %d, requested %d, reasons %v", env.ServedStep, env.RequestedStep, env.Reasons), env.ServedStep, true, nil
			}
		}
		snap, aerr := ref.Acquire(env.ServedStep)
		if aerr != nil {
			return fmt.Sprintf("served version %d was never committed: %v", env.ServedStep, aerr), env.ServedStep, env.Degraded, nil
		}
		defer snap.Close()
		return verify(snap), env.ServedStep, env.Degraded, nil
	}

	switch kind {
	case 0:
		ans, qerr := r.Point(ctx, version, pt[0], pt[1], pt[2])
		if qerr != nil {
			return "", 0, false, qerr
		}
		return check(ans.Envelope, func(snap *serve.Snapshot) string {
			want, werr := snap.Point(pt[0], pt[1], pt[2])
			if werr != nil {
				return fmt.Sprintf("replay point failed: %v", werr)
			}
			if ans.Leaf != want {
				return fmt.Sprintf("point mismatch at v%d", ans.ServedStep)
			}
			return ""
		})
	case 1:
		ans, qerr := r.Region(ctx, version, box)
		if qerr != nil {
			return "", 0, false, qerr
		}
		return check(ans.Envelope, func(snap *serve.Snapshot) string {
			want, werr := snap.Region(box)
			if werr != nil {
				return fmt.Sprintf("replay region failed: %v", werr)
			}
			if len(want) != len(ans.Hits) {
				return fmt.Sprintf("region mismatch at v%d: %d hits, replay %d", ans.ServedStep, len(ans.Hits), len(want))
			}
			for i := range want {
				if want[i].Code != ans.Hits[i].Code || want[i].Data != ans.Hits[i].Data {
					return fmt.Sprintf("region hit %d mismatch at v%d", i, ans.ServedStep)
				}
			}
			return ""
		})
	default:
		ans, qerr := r.Aggregate(ctx, version, field, box)
		if qerr != nil {
			return "", 0, false, qerr
		}
		return check(ans.Envelope, func(snap *serve.Snapshot) string {
			// Replay the router's distributed merge with an independent
			// fold: per-span partials in span order, bit-identical or bust.
			var want serve.AggResult
			for i := 0; i < r.Map().Len(); i++ {
				res, werr := snap.Query(nil, serve.Query{Class: serve.ClassAgg, Box: box, Field: field, Span: r.Map().Span(i)})
				if werr != nil {
					return fmt.Sprintf("replay agg failed: %v", werr)
				}
				part := res.Agg
				if part.Count == 0 {
					continue
				}
				if want.Count == 0 || part.Min < want.Min {
					want.Min = part.Min
				}
				if want.Count == 0 || part.Max > want.Max {
					want.Max = part.Max
				}
				want.Count += part.Count
				want.Sum += part.Sum
				want.VolSum += part.VolSum
			}
			if ans.Agg != want {
				return fmt.Sprintf("agg mismatch at v%d: %+v vs %+v", ans.ServedStep, ans.Agg, want)
			}
			return ""
		})
	}
}
