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

// RouterChaosConfig parameterizes the sharded-serving chaos soak: a
// router over N in-process shards, with shards killed and restarted
// (sometimes mid-scatter, via a call-count fuse) while queries flow.
type RouterChaosConfig struct {
	Seed            int64
	Shards          int // shard backends (default 3, min 2)
	Rounds          int // soak rounds; each advances the fleet one step (default 18)
	QueriesPerRound int // routed queries per round (default 8)
	MaxLevel        uint8
	Keep            int // versions each shard catalog retains (default 3)
	ReplicaEvery    int // replica sync/refresh cadence in rounds (default 2)
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
	Takeovers        uint64
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
	fmt.Fprintf(&b, "  paths: retries=%d hedges=%d replica=%d takeover=%d stale=%d breaker_opens=%d\n",
		r.Retries, r.Hedges, r.ReplicaFallbacks, r.Takeovers, r.StaleFallbacks, r.BreakerOpens)
	fmt.Fprintf(&b, "  final: step=%d availability=%.4f digest=%016x\n", r.FinalStep, r.Availability, r.Digest)
	return b.String()
}

// chaosShard is one shard process: its own deterministic droplet tree on
// its own device, a catalog + scheduler behind a swappable local backend,
// and a kill gate. Killing flips the gate (the process stops answering);
// restarting rebuilds the catalog over the surviving tree, so pinned
// history is lost and only the newest committed version comes back — the
// version-skew that drives stale fallback. A fuse kills the shard after
// a fixed number of further backend calls, landing mid-scatter.
type chaosShard struct {
	id       int
	maxLevel uint8
	keep     int
	dev      *nvbm.Device
	tree     *core.Tree
	d        *sim.Droplet
	step     int // last committed sim step (own clock; lags while down)

	down atomic.Bool
	fuse atomic.Int64

	mu    sync.RWMutex
	cat   *serve.Catalog
	sched *serve.Scheduler
	be    *router.LocalBackend
}

// routerChaosSimSteps is the fixed nominal droplet duration: step s maps
// to time s/Steps, so every shard and the reference must share one
// denominator for step s to be the same physical state everywhere.
const routerChaosSimSteps = 64

func newChaosShard(id int, maxLevel uint8, keep int, seed int64) *chaosShard {
	s := &chaosShard{id: id, maxLevel: maxLevel, keep: keep}
	s.dev = nvbm.New(nvbm.NVBM, 0)
	s.tree = core.Create(core.Config{
		NVBMDevice:     s.dev,
		DRAMDevice:     nvbm.New(nvbm.DRAM, 0),
		Seed:           seed,
		RetainVersions: 2,
	})
	s.d = sim.NewDroplet(sim.DropletConfig{Steps: routerChaosSimSteps})
	s.tree.SetFeatures(s.d.Feature(1))
	s.cat = serve.NewCatalog(s.tree, serve.Config{Keep: keep})
	s.sched = serve.NewScheduler(serve.SchedulerConfig{})
	s.be = router.NewLocalBackend(fmt.Sprintf("shard%d", id), s.cat, s.sched)
	return s
}

// advance commits one more sim step and publishes it. Only called while
// alive, from the soak loop.
func (s *chaosShard) advance() {
	s.step++
	sim.Step(s.tree, s.d, s.step, s.maxLevel)
	s.tree.SetFeatures(s.d.Feature(s.step + 1))
	s.tree.Persist()
	s.mu.RLock()
	if snap, err := s.cat.Publish(); err == nil {
		snap.Close()
	}
	s.mu.RUnlock()
}

// advanceTo replays steps up to the fleet clock: a shard that was down
// resyncs the simulation feed it missed, commit by commit, once alive
// again. Its catalog ends up holding the newest Keep versions, same as
// everyone else's.
func (s *chaosShard) advanceTo(target int) {
	for s.step < target {
		s.advance()
	}
}

// kill stops the shard from answering, optionally after `fuse` more
// backend calls (a mid-scatter death).
func (s *chaosShard) kill(fuse int64) {
	if fuse > 0 {
		s.fuse.Store(fuse)
		return
	}
	s.down.Store(true)
}

// restart brings the shard back: the old catalog (and its pinned
// history) is gone; the rebuilt one republishes only the tree's current
// committed version.
func (s *chaosShard) restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sched.Close()
	s.cat.Close()
	s.cat = serve.NewCatalog(s.tree, serve.Config{Keep: s.keep})
	if snap, err := s.cat.Publish(); err == nil {
		snap.Close()
	}
	s.sched = serve.NewScheduler(serve.SchedulerConfig{})
	s.be = router.NewLocalBackend(fmt.Sprintf("shard%d", s.id), s.cat, s.sched)
	s.fuse.Store(0)
	s.down.Store(false)
}

func (s *chaosShard) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sched.Close()
	s.cat.Close()
}

// gate applies the fuse and the kill switch before every backend call.
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

func (s *chaosShard) backend() router.Backend {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be
}

func (s *chaosShard) Name() string { return fmt.Sprintf("shard%d", s.id) }

func (s *chaosShard) Query(ctx context.Context, v uint64, q serve.Query) (serve.Result, error) {
	if err := s.gate(); err != nil {
		return serve.Result{}, err
	}
	return s.backend().Query(ctx, v, q)
}

func (s *chaosShard) Versions(ctx context.Context) ([]uint64, error) {
	if err := s.gate(); err != nil {
		return nil, err
	}
	return s.backend().Versions(ctx)
}

func (s *chaosShard) Probe(ctx context.Context) error {
	if err := s.gate(); err != nil {
		return err
	}
	return s.backend().Probe(ctx)
}

// replicaShard is the recovery-replica backend for one shard: a catalog
// over a tree restored from the shard's ReplicaManager image. Until the
// first refresh it reports down; after that it serves whatever committed
// version the last shipped frame held — typically lagging the primary.
type replicaShard struct {
	id int

	mu    sync.RWMutex
	cat   *serve.Catalog
	sched *serve.Scheduler
	be    *router.LocalBackend
}

func (r *replicaShard) Name() string { return fmt.Sprintf("shard%d-replica", r.id) }

// rebind restores a tree from the replica image and serves its committed
// version. Called from the soak loop only.
func (r *replicaShard) rebind(img *nvbm.Device, seed int64) error {
	t, err := core.Restore(core.Config{
		NVBMDevice:     img,
		DRAMDevice:     nvbm.New(nvbm.DRAM, 0),
		Seed:           seed,
		RetainVersions: 2,
	})
	if err != nil {
		return err
	}
	cat := serve.NewCatalog(t, serve.Config{Keep: 1})
	if snap, err := cat.Publish(); err != nil {
		cat.Close()
		return err
	} else {
		snap.Close()
	}
	sched := serve.NewScheduler(serve.SchedulerConfig{})
	r.mu.Lock()
	old, oldSched := r.cat, r.sched
	r.cat, r.sched = cat, sched
	r.be = router.NewLocalBackend(r.Name(), cat, sched)
	r.mu.Unlock()
	if oldSched != nil {
		oldSched.Close()
	}
	if old != nil {
		old.Close()
	}
	return nil
}

func (r *replicaShard) backend() (router.Backend, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.be == nil {
		return nil, fmt.Errorf("%w: replica for shard%d never synced", router.ErrBackendDown, r.id)
	}
	return r.be, nil
}

func (r *replicaShard) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sched != nil {
		r.sched.Close()
	}
	if r.cat != nil {
		r.cat.Close()
	}
}

func (r *replicaShard) Query(ctx context.Context, v uint64, q serve.Query) (serve.Result, error) {
	be, err := r.backend()
	if err != nil {
		return serve.Result{}, err
	}
	return be.Query(ctx, v, q)
}

func (r *replicaShard) Versions(ctx context.Context) ([]uint64, error) {
	be, err := r.backend()
	if err != nil {
		return nil, err
	}
	return be.Versions(ctx)
}

func (r *replicaShard) Probe(ctx context.Context) error {
	be, err := r.backend()
	if err != nil {
		return err
	}
	return be.Probe(ctx)
}

// RunRouterChaos soaks the query router against a fleet of in-process
// shards while the seed-driven schedule kills and restarts them — at
// least one shard is down whenever queries run, and some kills are armed
// as call-count fuses that fire between the parts of a single scattered
// query. Every answer is checked against a never-failing reference tree
// advanced in lockstep:
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

	// The reference: same deterministic workload, never killed, keeps
	// every version ever committed.
	ref := newChaosShard(-1, cfg.MaxLevel, cfg.Rounds+2, cfg.Seed)
	defer ref.close()

	shards := make([]*chaosShard, cfg.Shards)
	replicas := make([]*replicaShard, cfg.Shards)
	shardCfgs := make([]router.ShardConfig, cfg.Shards)
	for i := range shards {
		shards[i] = newChaosShard(i, cfg.MaxLevel, cfg.Keep, cfg.Seed)
		replicas[i] = &replicaShard{id: i}
		shardCfgs[i] = router.ShardConfig{Primary: shards[i], Replica: replicas[i]}
	}
	defer func() {
		for i := range shards {
			shards[i].close()
			replicas[i].close()
		}
	}()

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

	// refSteps tracks every committed reference version, newest last; the
	// shard fleet's versions are always a subset (same workload, same
	// sequential step clock).
	var refSteps []uint64

	advanceAll := func() {
		ref.advance()
		refSteps = append(refSteps, ref.tree.CommittedStep())
		mix(commitDigest(ref.tree))
		cfg.Recorder.Record(telemetry.FlightEvent{Kind: "commit", Step: ref.tree.CommittedStep(), Value: commitDigest(ref.tree)})
		for _, s := range shards {
			if !s.down.Load() {
				s.advanceTo(ref.step)
			}
		}
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
		advanceAll()

		// Replica sync on cadence: alive shards ship a delta frame; one
		// rng-chosen replica restores its image and rebinds, so replica
		// backends serve real (lagging) committed versions.
		if round%cfg.ReplicaEvery == 0 {
			alive, _ := partition()
			for _, id := range alive {
				if err := mgr.Sync(id, shards[id].dev); err != nil {
					return rep, fmt.Errorf("round %d: replica sync shard%d: %w", round, id, err)
				}
			}
			if len(alive) > 0 {
				id := pickFrom(alive)
				if img, _, err := mgr.Recover(id); err == nil {
					if err := replicas[id].rebind(img, cfg.Seed); err != nil {
						return rep, fmt.Errorf("round %d: replica rebind shard%d: %w", round, id, err)
					}
					rep.ReplicaRefreshes++
					mix(4, uint64(id))
					cfg.Recorder.Record(telemetry.FlightEvent{Kind: "replica_refresh", Step: uint64(id)})
				}
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
			// 1-in-4 queries pin one of the three newest reference
			// versions; the rest ask for Latest.
			version := uint64(router.Latest)
			if rng.Intn(4) == 0 {
				back := rng.Intn(3)
				if back >= len(refSteps) {
					back = len(refSteps) - 1
				}
				version = refSteps[len(refSteps)-1-back]
			}
			rep.Queries++
			wrong, served, degraded, err := runRouterChaosQuery(ctx, r, ref, rng, version)
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
		rep.Takeovers = cfg.Registry.Counter("router.fallback.takeover").Value()
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
func runRouterChaosQuery(ctx context.Context, r *router.Router, ref *chaosShard, rng *rand.Rand, version uint64) (wrong string, served uint64, degraded bool, err error) {
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
		snap, aerr := ref.cat.Acquire(env.ServedStep)
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
