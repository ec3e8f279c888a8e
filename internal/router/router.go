package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pmoctree/internal/serve"
	"pmoctree/internal/telemetry"
)

// ErrUnavailable means the failover chain ran out for some shard: neither
// its primary (after retries and hedging) nor its recovery replica could
// serve the request, and the stale retarget found no older committed
// version every missing part holds. The HTTP layer maps it to 503.
var ErrUnavailable = fmt.Errorf("router: request unavailable")

// ShardConfig is one shard's sources: the primary backend that owns the
// span, and an optional recovery replica (the ReplicaManager image,
// possibly lagging the primary by a few commits).
type ShardConfig struct {
	Primary Backend
	Replica Backend
}

// Config parameterizes a Router.
type Config struct {
	// Shards, in span order, over the uniform partition (UniformSpans).
	// Required.
	Shards []ShardConfig
	// MaxRetries bounds retries after the first attempt (default 2).
	MaxRetries int
	// AttemptTimeout bounds each individual backend call; 0 means the
	// request's own deadline is the only bound.
	AttemptTimeout time.Duration
	// HedgeDelay, when positive, launches a hedged read against the
	// shard's replica if the primary has not answered within the delay.
	// Degraded shards are hedged immediately. 0 disables hedging.
	HedgeDelay time.Duration
	// Breaker and Health parameterize the per-shard circuit breakers and
	// health trackers.
	Breaker BreakerConfig
	Health  HealthConfig
	// ProbeInterval, when positive, runs a background prober that feeds
	// each shard's health tracker even when no traffic flows — a Down
	// shard recovers via probes, not via sacrificial user requests.
	ProbeInterval time.Duration
	// Seed seeds the jitter source (0 means 1).
	Seed int64
	// Registry, when set, receives router.* metrics.
	Registry *telemetry.Registry
	// Recorder, when set, receives flight events for health and breaker
	// transitions, fallbacks, and stale serves.
	Recorder *telemetry.FlightRecorder
	// Process, when set, mirrors shard state into the process-level
	// health registry: each Down shard is a degraded reason, and an
	// all-shards-down router fails its readiness check.
	Process *telemetry.Health
	// Sleep is the backoff sleep (default: real timer honoring ctx);
	// tests and the chaos soak inject a virtual clock.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Retry backoff is exponential from baseBackoff, capped at maxBackoff,
// and each wait gets equal jitter: half deterministic, half drawn from
// the seeded source. probeTimeout bounds each health probe.
const (
	baseBackoff  = 2 * time.Millisecond
	maxBackoff   = 100 * time.Millisecond
	probeTimeout = 500 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return c
}

// shardState is one shard's routing state.
type shardState struct {
	id      int
	span    serve.KeyRange
	primary Backend
	replica Backend
	breaker *Breaker
	health  *HealthTracker
}

// Router is the scatter-gather front tier. All methods are safe for
// concurrent use.
type Router struct {
	cfg    Config
	smap   *ShardMap
	shards []*shardState

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mRequests        *telemetry.Counter
	mErrors          *telemetry.Counter
	mUnavailable     *telemetry.Counter
	mRetries         *telemetry.Counter
	mHedges          *telemetry.Counter
	mHedgeWins       *telemetry.Counter
	mFallbackReplica *telemetry.Counter
	mFallbackStale   *telemetry.Counter
	mDegraded        *telemetry.Counter
	mBreakerOpens    *telemetry.Counter
	mLatency         *telemetry.Histogram
}

// New builds and starts a router.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	spans := UniformSpans(len(cfg.Shards))
	smap, err := NewShardMap(spans)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:  cfg,
		smap: smap,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		stop: make(chan struct{}),
	}
	if reg := cfg.Registry; reg != nil {
		r.mRequests = reg.Counter("router.requests")
		r.mErrors = reg.Counter("router.errors")
		r.mUnavailable = reg.Counter("router.unavailable")
		r.mRetries = reg.Counter("router.retries")
		r.mHedges = reg.Counter("router.hedges")
		r.mHedgeWins = reg.Counter("router.hedge_wins")
		r.mFallbackReplica = reg.Counter("router.fallback.replica")
		r.mFallbackStale = reg.Counter("router.fallback.stale")
		r.mDegraded = reg.Counter("router.degraded")
		r.mBreakerOpens = reg.Counter("router.breaker.opens")
		r.mLatency = reg.Histogram("router.latency_ns")
	}
	for i, sc := range cfg.Shards {
		if sc.Primary == nil {
			return nil, fmt.Errorf("router: shard %d has no primary", i)
		}
		s := &shardState{
			id:      i,
			span:    spans[i],
			primary: sc.Primary,
			replica: sc.Replica,
			breaker: NewBreaker(cfg.Breaker),
			health:  NewHealthTracker(cfg.Health),
		}
		id := i
		s.breaker.OnTransition(func(from, to BreakerState) {
			if to == BreakerOpen {
				inc(r.mBreakerOpens)
			}
			r.cfg.Recorder.Record(telemetry.FlightEvent{
				Kind:   "breaker",
				Value:  uint64(id),
				Detail: fmt.Sprintf("shard %d breaker %s->%s", id, from, to),
			})
		})
		s.health.OnTransition(func(from, to HealthState) {
			r.cfg.Recorder.Record(telemetry.FlightEvent{
				Kind:   "shard_health",
				Value:  uint64(id),
				Detail: fmt.Sprintf("shard %d %s->%s", id, from, to),
			})
			reason := fmt.Sprintf("router.shard%d", id)
			switch to {
			case Healthy:
				r.cfg.Process.Clear(reason)
			default:
				r.cfg.Process.Degrade(reason, to.String())
			}
		})
		if reg := cfg.Registry; reg != nil {
			reg.RegisterFunc(fmt.Sprintf("router.shard.%d.health", i), func() float64 {
				return float64(s.health.State())
			})
		}
		r.shards = append(r.shards, s)
	}
	if cfg.Process != nil {
		cfg.Process.AddCheck("router.shards", func() error {
			for _, s := range r.shards {
				if s.health.State() != Down {
					return nil
				}
			}
			return fmt.Errorf("all %d shards down", len(r.shards))
		})
	}
	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the background prober.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Router) probeLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			for _, s := range r.shards {
				r.probeShard(context.Background(), s)
			}
		}
	}
}

// probeShard runs one health probe and feeds both trackers. The probe is
// the canonical half-open traffic: when the breaker's own admission gate
// lets it through (always while closed, once per quiet period while
// open), its outcome counts — so a recovered shard re-closes its breaker
// on the probe cadence instead of waiting for a live query to risk it.
func (r *Router) probeShard(ctx context.Context, s *shardState) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	err := s.primary.Probe(pctx)
	cancel()
	observe(s.health, err)
	if s.breaker.Allow() {
		if err == nil {
			s.breaker.OnSuccess()
		} else {
			s.breaker.OnFailure()
		}
	}
}

func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Probe runs one synchronous probe round (the chaos soak drives health
// deterministically instead of waiting on the background ticker).
func (r *Router) Probe(ctx context.Context) {
	for _, s := range r.shards {
		r.probeShard(ctx, s)
	}
}

// Map returns the routing table.
func (r *Router) Map() *ShardMap { return r.smap }

// ShardInfo is one shard's routing state for /v1/shards.
type ShardInfo struct {
	ID      int            `json:"id"`
	Span    serve.KeyRange `json:"span"`
	Primary string         `json:"primary"`
	Replica string         `json:"replica,omitempty"`
	Health  string         `json:"health"`
	Breaker string         `json:"breaker"`
}

// Shards reports every shard's current routing state.
func (r *Router) Shards() []ShardInfo {
	out := make([]ShardInfo, len(r.shards))
	for i, s := range r.shards {
		out[i] = ShardInfo{
			ID:      s.id,
			Span:    s.span,
			Primary: s.primary.Name(),
			Health:  s.health.State().String(),
			Breaker: s.breaker.State().String(),
		}
		if s.replica != nil {
			out[i].Replica = s.replica.Name()
		}
	}
	return out
}

// Envelope is the provenance every routed answer carries (serve.Envelope).
type Envelope = serve.Envelope

// PointAnswer, RegionAnswer, and AggAnswer are routed query results.
type PointAnswer struct {
	Envelope
	Leaf serve.LeafHit
}

type RegionAnswer struct {
	Envelope
	Hits []serve.LeafHit
}

type AggAnswer struct {
	Envelope
	Agg serve.AggResult
}

// ask is one backend call at one explicit version. An answer from another
// step is the backend failing, not a stale answer to merge.
func ask(ctx context.Context, be Backend, version uint64, q serve.Query) (serve.Result, error) {
	res, err := be.Query(ctx, version, q)
	if err == nil && res.Step != version {
		return serve.Result{}, fmt.Errorf("%w: backend %s served step %d for explicit step %d", ErrBackendDown, be.Name(), res.Step, version)
	}
	return res, err
}

func (r *Router) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.cfg.AttemptTimeout > 0 {
		return context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	}
	return context.WithCancel(ctx)
}

// backoff returns the wait before retry `attempt` (0-based): exponential
// with a cap, equal-jittered from the seeded source.
func (r *Router) backoff(attempt int) time.Duration {
	d := baseBackoff
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	return d/2 + j
}

// tryBackend asks be for q with bounded retries and backoff. When gate is
// non-nil the call is admission-checked against gate's breaker and its
// outcome feeds gate's breaker and health tracker (the primary path);
// replicas run ungated.
func (r *Router) tryBackend(ctx context.Context, gate *shardState, be Backend, version uint64, q serve.Query) (serve.Result, error) {
	var lastErr error
	for att := 0; ; att++ {
		if err := ctx.Err(); err != nil {
			return serve.Result{}, err
		}
		if gate != nil && !gate.breaker.Allow() {
			if lastErr != nil {
				return serve.Result{}, lastErr
			}
			return serve.Result{}, fmt.Errorf("%w: shard %d breaker open", ErrBackendDown, gate.id)
		}
		actx, cancel := r.attemptCtx(ctx)
		res, err := ask(actx, be, version, q)
		cancel()
		// A call cut short because the parent context died (client gone,
		// hedge winner canceled the race) says nothing about the backend;
		// record no health or breaker signal for it.
		if gate != nil && ctx.Err() == nil {
			observe(gate.health, err)
			switch {
			case err == nil:
				gate.breaker.OnSuccess()
			case errors.Is(err, ErrBackendDown) || errors.Is(err, context.DeadlineExceeded):
				gate.breaker.OnFailure()
			}
		}
		if err == nil {
			return res, nil
		}
		lastErr = err
		// The parent context dying mid-attempt surfaces as the attempt's
		// deadline error; don't burn retries on a dead request.
		if ctx.Err() != nil {
			return serve.Result{}, ctx.Err()
		}
		if !retryable(err) || att >= r.cfg.MaxRetries {
			return serve.Result{}, err
		}
		inc(r.mRetries)
		if serr := r.cfg.Sleep(ctx, r.backoff(att)); serr != nil {
			return serve.Result{}, serr
		}
	}
}

// mergeMiss combines two errors, preferring to keep version-miss
// information: if either is a NoSuchVersionError the result is one whose
// availability is the union.
func mergeMiss(a, b error) error {
	av, aMiss := availableVersions(a)
	bv, bMiss := availableVersions(b)
	switch {
	case aMiss && bMiss:
		set := map[uint64]bool{}
		for _, v := range av {
			set[v] = true
		}
		for _, v := range bv {
			set[v] = true
		}
		return &serve.NoSuchVersionError{Available: sortedKeys(set)}
	case aMiss:
		return a
	case bMiss:
		return b
	case a != nil:
		return a
	default:
		return b
	}
}

func sortedKeys(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// primaryWithHedge is the first step of the failover chain: the primary
// call with retries, optionally racing a hedged read against the shard's
// replica when the primary is slow (or immediately when the shard is
// Degraded). The loser is canceled.
func (r *Router) primaryWithHedge(ctx context.Context, s *shardState, version uint64, q serve.Query) (serve.Result, string, error) {
	if r.cfg.HedgeDelay <= 0 || s.replica == nil {
		res, err := r.tryBackend(ctx, s, s.primary, version, q)
		return res, "primary", err
	}
	delay := r.cfg.HedgeDelay
	if s.health.State() == Degraded {
		delay = 0
	}
	type out struct {
		res serve.Result
		err error
		src string
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan out, 2)
	go func() {
		v, e := r.tryBackend(pctx, s, s.primary, version, q)
		ch <- out{v, e, "primary"}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	var primErr, hedgeErr error
	hedged := false
	remaining := 1
	for remaining > 0 {
		select {
		case rr := <-ch:
			remaining--
			if rr.err == nil {
				cancel()
				if rr.src != "primary" {
					inc(r.mHedgeWins)
				}
				return rr.res, rr.src, nil
			}
			if rr.src == "primary" {
				primErr = rr.err
				if !hedged {
					// Primary failed outright before the hedge fired; the
					// replica step of the chain takes over from here.
					return serve.Result{}, "", primErr
				}
			} else {
				hedgeErr = rr.err
			}
		case <-timerC:
			timerC = nil
			hedged = true
			remaining++
			inc(r.mHedges)
			go func() {
				v, e := r.tryBackend(pctx, nil, s.replica, version, q)
				ch <- out{v, e, "replica"}
			}()
		}
	}
	return serve.Result{}, "", mergeMiss(primErr, hedgeErr)
}

// servePart serves one shard's portion of a query — q filtered by the
// shard's span ∩ the requested span — at an exact version, walking the
// shard's failover chain: primary (retries + hedging), then its recovery
// replica. Each shard's arena holds only its own span, so no other shard
// can answer for it. When every source is up but none holds the version,
// the returned error is a NoSuchVersionError whose availability is the
// union across sources, so scatter can take the chain's last step, the
// stale retarget. src reports where the answer came from: "primary" or
// "replica".
func (r *Router) servePart(ctx context.Context, s *shardState, version uint64, q serve.Query) (res serve.Result, src string, err error) {
	if q.Class != serve.ClassPoint {
		q.Span, _ = s.span.Intersect(q.Span)
	}
	miss := map[uint64]bool{}
	anyMiss := false
	var lastErr error
	note := func(err error) {
		if av, ok := availableVersions(err); ok {
			anyMiss = true
			for _, v := range av {
				miss[v] = true
			}
			return
		}
		lastErr = err
	}

	if s.health.State() != Down {
		res, src, err = r.primaryWithHedge(ctx, s, version, q)
		if err == nil {
			return res, src, nil
		}
		if ctx.Err() != nil {
			return serve.Result{}, "", ctx.Err()
		}
		note(err)
	}
	if s.replica != nil {
		res, rerr := r.tryBackend(ctx, nil, s.replica, version, q)
		if rerr == nil {
			inc(r.mFallbackReplica)
			r.cfg.Recorder.Record(telemetry.FlightEvent{
				Kind:   "fallback",
				Value:  uint64(s.id),
				Detail: fmt.Sprintf("shard %d served by replica", s.id),
			})
			return res, "replica", nil
		}
		if ctx.Err() != nil {
			return serve.Result{}, "", ctx.Err()
		}
		note(rerr)
	}
	if anyMiss {
		return serve.Result{}, "", &serve.NoSuchVersionError{Available: sortedKeys(miss)}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no source configured")
	}
	return serve.Result{}, "", fmt.Errorf("%w: shard %d: %v", ErrUnavailable, s.id, lastErr)
}

// resolveLatest picks the newest committed step any reachable source
// advertises. Healthy and degraded primaries are consulted first;
// replicas only when no primary answers.
func (r *Router) resolveLatest(ctx context.Context) (uint64, error) {
	best, found := uint64(0), false
	try := func(be Backend) {
		vctx, cancel := r.attemptCtx(ctx)
		defer cancel()
		vs, err := be.Versions(vctx)
		if err != nil {
			return
		}
		for _, v := range vs {
			if !found || v > best {
				best, found = v, true
			}
		}
	}
	for _, s := range r.shards {
		if s.health.State() != Down {
			try(s.primary)
		}
	}
	if !found {
		for _, s := range r.shards {
			try(s.primary)
			if s.replica != nil {
				try(s.replica)
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("%w: no shard reports a committed version", ErrUnavailable)
	}
	return best, nil
}

// maxScatterRounds bounds version retargeting; each round's target is
// strictly older than the last, so convergence is also value-bounded.
const maxScatterRounds = 4

// scatter serves ids' parts of q at one consistent version: requested (or
// resolved latest), degrading to the newest version every missing part
// can serve. All parts of the returned answer were served at exactly
// env.ServedStep — a merged answer never mixes versions.
func (r *Router) scatter(ctx context.Context, requested uint64, ids []int, q serve.Query) ([]serve.Result, Envelope, error) {
	env := Envelope{RequestedStep: requested}
	target := requested
	if requested == Latest {
		t, err := r.resolveLatest(ctx)
		if err != nil {
			return nil, env, err
		}
		target = t
		env.RequestedStep = t
	}
	for round := 0; round < maxScatterRounds; round++ {
		type partOut struct {
			res serve.Result
			src string
			err error
		}
		outs := make([]partOut, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func(i, id int) {
				defer wg.Done()
				v, src, err := r.servePart(ctx, r.shards[id], target, q)
				outs[i] = partOut{v, src, err}
			}(i, id)
		}
		wg.Wait()

		votes := map[uint64]int{}
		nMiss := 0
		var hardErr error
		for _, o := range outs {
			switch {
			case o.err == nil:
			default:
				if av, ok := availableVersions(o.err); ok {
					nMiss++
					for _, v := range av {
						if v < target {
							votes[v]++
						}
					}
				} else {
					hardErr = o.err
				}
			}
		}
		if hardErr != nil {
			if !errors.Is(hardErr, ErrUnavailable) && ctx.Err() == nil {
				hardErr = fmt.Errorf("%w: %v", ErrUnavailable, hardErr)
			}
			return nil, env, hardErr
		}
		if nMiss == 0 {
			env.ServedStep = target
			if target != env.RequestedStep {
				env.Degraded = true
				env.Reasons = append(env.Reasons, "stale_version")
			}
			parts := make([]serve.Result, len(outs))
			for i, id := range ids {
				parts[i] = outs[i].res
				label := fmt.Sprintf("shard%d", id)
				if outs[i].src != "primary" {
					label += "/" + outs[i].src
				}
				env.ServedBy = append(env.ServedBy, label)
			}
			return parts, env, nil
		}
		// Retarget to the newest strictly-older version every missing part
		// advertised; parts that served this round re-serve at the new
		// target next round so the merge stays single-version.
		best, ok := uint64(0), false
		for v, n := range votes {
			if n == nMiss && (!ok || v > best) {
				best, ok = v, true
			}
		}
		if !ok {
			return nil, env, fmt.Errorf("%w: no committed version is available across all shard spans (wanted %d)", ErrUnavailable, target)
		}
		target = best
	}
	return nil, env, fmt.Errorf("%w: version retargeting did not converge", ErrUnavailable)
}

// finish records per-request metrics and degradation bookkeeping.
func (r *Router) finish(t0 time.Time, env *Envelope, err error) {
	if r.mLatency != nil {
		r.mLatency.Observe(uint64(time.Since(t0)))
	}
	if err != nil {
		inc(r.mErrors)
		if errors.Is(err, ErrUnavailable) {
			inc(r.mUnavailable)
		}
		return
	}
	if env.Degraded {
		inc(r.mDegraded)
		inc(r.mFallbackStale)
		r.cfg.Recorder.Record(telemetry.FlightEvent{
			Kind:   "stale",
			Step:   env.ServedStep,
			Detail: fmt.Sprintf("served step %d for requested %d", env.ServedStep, env.RequestedStep),
		})
	}
}

// query serves q at version: the shards that can hold an answering leaf
// each serve their span's part at one consistent version, and the parts
// merge — a point keeps its owner's leaf, region hits concatenate in
// shard order (spans are ascending and disjoint, so that is the Z-order
// merge), aggregates fold (disjoint partials merge exactly).
func (r *Router) query(ctx context.Context, version uint64, q serve.Query) (Envelope, serve.Result, error) {
	inc(r.mRequests)
	t0 := time.Now()
	ids, err := r.route(q)
	if err != nil {
		inc(r.mErrors)
		return Envelope{}, serve.Result{}, err
	}
	parts, env, err := r.scatter(ctx, version, ids, q)
	r.finish(t0, &env, err)
	if err != nil {
		return Envelope{}, serve.Result{}, err
	}
	res := serve.Result{Step: env.ServedStep}
	for _, p := range parts {
		switch q.Class {
		case serve.ClassPoint:
			res.Leaf = p.Leaf
		case serve.ClassRegion:
			res.Hits = append(res.Hits, p.Hits...)
		default:
			res.Agg.Merge(p.Agg)
		}
	}
	return env, res, nil
}

// route returns the ascending shard ids q scatters to: the owner of a
// point's MaxLevel cell key, or every shard that can own a leaf
// intersecting the box and whose span meets the requested span. When no
// such shard remains the answer is empty, and the owner of the span's
// first key serves it, so it still comes from a committed version.
func (r *Router) route(q serve.Query) ([]int, error) {
	if err := q.Check(); err != nil {
		return nil, err
	}
	if q.Class != serve.ClassPoint {
		ids, err := r.smap.CandidatesForBox(q.Box)
		if err != nil {
			return nil, err
		}
		kept := ids[:0]
		for _, id := range ids {
			if _, ok := r.smap.Span(id).Intersect(q.Span); ok {
				kept = append(kept, id)
			}
		}
		if len(kept) == 0 {
			kept = append(kept, r.smap.OwnerOf(q.Span.Lo))
		}
		return kept, nil
	}
	cell, err := serve.CellAt(q.Point)
	if err != nil {
		return nil, err
	}
	return []int{r.smap.OwnerOf(uint64(cell))}, nil
}

// Point answers a point lookup.
func (r *Router) Point(ctx context.Context, version uint64, x, y, z float64) (PointAnswer, error) {
	env, res, err := r.query(ctx, version, serve.Query{Class: serve.ClassPoint, Point: [3]float64{x, y, z}})
	return PointAnswer{env, res.Leaf}, err
}

// Region answers a region query.
func (r *Router) Region(ctx context.Context, version uint64, box serve.Box) (RegionAnswer, error) {
	env, res, err := r.query(ctx, version, serve.Query{Class: serve.ClassRegion, Box: box, Span: serve.FullKeyRange()})
	return RegionAnswer{env, res.Hits}, err
}

// Aggregate answers a field aggregation.
func (r *Router) Aggregate(ctx context.Context, version uint64, field int, box serve.Box) (AggAnswer, error) {
	env, res, err := r.query(ctx, version, serve.Query{Class: serve.ClassAgg, Box: box, Field: field, Span: serve.FullKeyRange()})
	return AggAnswer{env, res.Agg}, err
}

// Versions reports the union of committed steps across every reachable
// source, ascending.
func (r *Router) Versions(ctx context.Context) ([]uint64, error) {
	set := map[uint64]bool{}
	reached := false
	collect := func(be Backend) {
		vctx, cancel := r.attemptCtx(ctx)
		defer cancel()
		vs, err := be.Versions(vctx)
		if err != nil {
			return
		}
		reached = true
		for _, v := range vs {
			set[v] = true
		}
	}
	for _, s := range r.shards {
		collect(s.primary)
		if s.replica != nil {
			collect(s.replica)
		}
	}
	if !reached {
		return nil, fmt.Errorf("%w: no shard reachable", ErrUnavailable)
	}
	return sortedKeys(set), nil
}
