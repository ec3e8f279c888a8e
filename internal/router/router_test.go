package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/serve"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

const testMaxLevel = 4

// shardFixture is one in-process server: a catalog and scheduler over a
// tree.
type shardFixture struct {
	be    *LocalBackend
	cat   *serve.Catalog
	sched *serve.Scheduler
}

func newFixture(t testing.TB, name string, tree *core.Tree, keep int) *shardFixture {
	cat := serve.NewCatalog(tree, serve.Config{Keep: keep})
	sched := serve.NewScheduler(serve.SchedulerConfig{})
	t.Cleanup(func() {
		sched.Close()
		cat.Close()
	})
	return &shardFixture{be: NewLocalBackend(name, cat, sched), cat: cat, sched: sched}
}

func publish(t testing.TB, cat *serve.Catalog) {
	t.Helper()
	snap, err := cat.Publish()
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
}

// fleet is the deployment the router serves: one writer running the
// deterministic droplet workload, and n shard arenas, one per span of
// UniformSpans(n), into which every commit is materialized and published.
// ref serves the writer's own tree, keeping every version: the
// single-tree reference routed answers must equal.
type fleet struct {
	tree   *core.Tree
	d      *sim.Droplet
	step   int
	ref    *shardFixture
	arenas []*core.Tree
	shards []*shardFixture
}

func newFleet(t testing.TB, n, keep int) *fleet {
	t.Helper()
	// Fixed nominal duration: step s maps to time s/Steps, so every
	// writer must share the same denominator for step s to be the same
	// physical state regardless of how many steps it commits.
	const simSteps = 16
	f := &fleet{d: sim.NewDroplet(sim.DropletConfig{Steps: simSteps})}
	f.tree = core.Create(core.Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0), DRAMDevice: nvbm.New(nvbm.DRAM, 0)})
	f.tree.SetFeatures(f.d.Feature(1))
	f.ref = newFixture(t, "ref", f.tree, simSteps)
	for i := 0; i < n; i++ {
		arena := core.Create(core.Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0), DRAMDevice: nvbm.New(nvbm.DRAM, 0)})
		f.arenas = append(f.arenas, arena)
		f.shards = append(f.shards, newFixture(t, fmt.Sprintf("s%d", i), arena, keep))
	}
	return f
}

// commit runs one writer step and publishes it in ref; with toShards it
// also materializes the step into every arena and publishes it there.
func (f *fleet) commit(t testing.TB, toShards bool) {
	t.Helper()
	f.step++
	sim.Step(f.tree, f.d, f.step, testMaxLevel)
	f.tree.SetFeatures(f.d.Feature(f.step + 1))
	f.tree.Persist()
	publish(t, f.ref.cat)
	if !toShards {
		return
	}
	spans := UniformSpans(len(f.arenas))
	for i, arena := range f.arenas {
		if _, err := MaterializeInto(arena, f.tree, spans[i], nil); err != nil {
			t.Fatal(err)
		}
		publish(t, f.shards[i].cat)
	}
}

// buildFleet commits `steps` writer steps into n shard arenas whose
// catalogs keep the newest `keep`. The droplet sim is deterministic, so
// two fleets of the same shape hold bit-identical arenas: one serves as
// the other's recovery replicas.
func buildFleet(t testing.TB, n, steps, keep int) *fleet {
	t.Helper()
	f := newFleet(t, n, keep)
	for s := 0; s < steps; s++ {
		f.commit(t, true)
	}
	return f
}

// primaries returns the fleet's shard backends as router shards.
func (f *fleet) primaries() []ShardConfig {
	out := make([]ShardConfig, len(f.shards))
	for i, fx := range f.shards {
		out[i].Primary = fx.be
	}
	return out
}

// replayAgg is the router's distributed aggregate replayed on one tree:
// per-span partials in span order, folded independently of
// AggResult.Merge.
func replayAgg(t *testing.T, s *serve.Snapshot, spans *ShardMap, field int, box serve.Box) serve.AggResult {
	t.Helper()
	var want serve.AggResult
	first := true
	for i := 0; i < spans.Len(); i++ {
		res, err := s.Query(nil, serve.Query{Class: serve.ClassAgg, Box: box, Field: field, Span: spans.Span(i)})
		if err != nil {
			t.Fatal(err)
		}
		part := res.Agg
		if part.Count == 0 {
			continue
		}
		want.Count += part.Count
		want.Sum += part.Sum
		want.VolSum += part.VolSum
		if first || part.Min < want.Min {
			want.Min = part.Min
		}
		if first || part.Max > want.Max {
			want.Max = part.Max
		}
		first = false
	}
	return want
}

// instantSleep removes real backoff waits from tests.
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

var testBoxes = []serve.Box{
	{Min: [3]float64{0, 0, 0}, Max: [3]float64{1, 1, 1}},
	{Min: [3]float64{0.2, 0.2, 0.2}, Max: [3]float64{0.4, 0.35, 0.3}},
	{Min: [3]float64{0.45, 0.45, 0.45}, Max: [3]float64{0.55, 0.55, 0.55}},
	{Min: [3]float64{0.7, 0.1, 0.6}, Max: [3]float64{0.9, 0.2, 0.8}},
	{Min: [3]float64{0.01, 0.8, 0.03}, Max: [3]float64{0.12, 0.99, 0.2}},
}

// gatedBackend fails every call with ErrBackendDown while down is set.
type gatedBackend struct {
	Backend
	down atomic.Bool
}

func (g *gatedBackend) gate() error {
	if g.down.Load() {
		return errors.New("gated: process killed")
	}
	return nil
}

func (g *gatedBackend) Query(ctx context.Context, v uint64, q serve.Query) (serve.Result, error) {
	if err := g.gate(); err != nil {
		return serve.Result{}, errors.Join(ErrBackendDown, err)
	}
	return g.Backend.Query(ctx, v, q)
}

func (g *gatedBackend) Versions(ctx context.Context) ([]uint64, error) {
	if err := g.gate(); err != nil {
		return nil, errors.Join(ErrBackendDown, err)
	}
	return g.Backend.Versions(ctx)
}

func (g *gatedBackend) Probe(ctx context.Context) error {
	if err := g.gate(); err != nil {
		return errors.Join(ErrBackendDown, err)
	}
	return g.Backend.Probe(ctx)
}

// flakyBackend fails the first n calls, then behaves.
type flakyBackend struct {
	Backend
	mu   sync.Mutex
	left int
}

func (f *flakyBackend) trip() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left > 0 {
		f.left--
		return true
	}
	return false
}

func (f *flakyBackend) Query(ctx context.Context, v uint64, q serve.Query) (serve.Result, error) {
	if f.trip() {
		return serve.Result{}, ErrBackendDown
	}
	return f.Backend.Query(ctx, v, q)
}

// slowBackend delays every query until the delay passes or ctx dies.
type slowBackend struct {
	Backend
	delay time.Duration
}

func (s *slowBackend) wait(ctx context.Context) error {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (s *slowBackend) Query(ctx context.Context, v uint64, q serve.Query) (serve.Result, error) {
	if err := s.wait(ctx); err != nil {
		return serve.Result{}, err
	}
	return s.Backend.Query(ctx, v, q)
}

// skewedBackend answers every query as if from the step after the one
// asked for.
type skewedBackend struct{ Backend }

func (s *skewedBackend) Query(ctx context.Context, v uint64, q serve.Query) (serve.Result, error) {
	res, err := s.Backend.Query(ctx, v, q)
	res.Step++
	return res, err
}

// replayRegion answers a region query against the reference catalog.
func replayRegion(t *testing.T, ref *shardFixture, step uint64, box serve.Box) []serve.LeafHit {
	t.Helper()
	s, err := ref.cat.Acquire(step)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hits, err := s.Region(box)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func sameHits(a, b []serve.LeafHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Code != b[i].Code || a[i].Data != b[i].Data {
			return false
		}
	}
	return true
}

// TestRoutedQueriesMatchSingleTree: for every committed version and
// Latest, routed point/region/aggregate answers over arenas the writer
// materialized commit by commit are identical to a single-tree replay,
// with degraded=false and the exact version served.
func TestRoutedQueriesMatchSingleTree(t *testing.T) {
	const steps = 4
	f := buildFleet(t, 3, steps, steps)
	ref := f.ref
	reg := telemetry.NewRegistry()
	r, err := New(Config{Shards: f.primaries(), Seed: 42, Registry: reg, Sleep: instantSleep})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	published := ref.cat.Steps()
	if len(published) != steps {
		t.Fatalf("reference catalog has %d versions, want %d", len(published), steps)
	}
	versions := append([]uint64{Latest}, published...)
	latest := published[len(published)-1]

	for _, v := range versions {
		wantStep := v
		if v == Latest {
			wantStep = latest
		}
		for _, box := range testBoxes {
			ans, err := r.Region(ctx, v, box)
			if err != nil {
				t.Fatalf("Region(v=%d, %+v): %v", v, box, err)
			}
			if ans.Degraded || ans.ServedStep != wantStep {
				t.Fatalf("Region(v=%d): degraded=%v served=%d, want clean serve of %d", v, ans.Degraded, ans.ServedStep, wantStep)
			}
			want := replayRegion(t, ref, wantStep, box)
			if !sameHits(ans.Hits, want) {
				t.Fatalf("Region(v=%d, %+v): %d hits != replay %d hits", v, box, len(ans.Hits), len(want))
			}

			agg, err := r.Aggregate(ctx, v, 0, box)
			if err != nil {
				t.Fatalf("Aggregate(v=%d): %v", v, err)
			}
			s, err := ref.cat.Acquire(wantStep)
			if err != nil {
				t.Fatal(err)
			}
			wantAgg := replayAgg(t, s, r.Map(), 0, box)
			whole, err := s.Aggregate(0, box)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			if agg.Agg != wantAgg || agg.ServedStep != wantStep {
				t.Fatalf("Aggregate(v=%d, %+v) = %+v at step %d, want %+v", v, box, agg.Agg, agg.ServedStep, wantAgg)
			}
			// The single tree covers the same leaves: extrema match exactly,
			// sums to rounding.
			if agg.Agg.Count != whole.Count || agg.Agg.Min != whole.Min || agg.Agg.Max != whole.Max ||
				math.Abs(agg.Agg.Sum-whole.Sum) > 1e-9*(1+math.Abs(whole.Sum)) ||
				math.Abs(agg.Agg.VolSum-whole.VolSum) > 1e-9*(1+math.Abs(whole.VolSum)) {
				t.Fatalf("Aggregate(v=%d) diverges from single-tree: %+v vs %+v", v, agg.Agg, whole)
			}
		}
		for _, x := range []float64{0.01, 0.33, 0.5, 0.74, 0.99} {
			ans, err := r.Point(ctx, v, x, x/2, 1-x)
			if err != nil {
				t.Fatalf("Point(v=%d, %v): %v", v, x, err)
			}
			s, err := ref.cat.Acquire(wantStep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.Point(x, x/2, 1-x)
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ans.Leaf != want || ans.ServedStep != wantStep {
				t.Fatalf("Point(v=%d): %+v at step %d != replay %+v", v, ans.Leaf, ans.ServedStep, want)
			}
		}
	}
	if _, err := r.Point(ctx, Latest, 1.5, 0, 0); !errors.Is(err, serve.ErrOutOfDomain) {
		t.Fatalf("out-of-domain point = %v, want ErrOutOfDomain", err)
	}
	if _, err := r.Region(ctx, Latest, serve.Box{Min: [3]float64{0.5, 0, 0}, Max: [3]float64{0.4, 1, 1}}); !errors.Is(err, serve.ErrBadRegion) {
		t.Fatalf("inverted box = %v, want ErrBadRegion", err)
	}
}

// TestRouterRetriesTransientFailures: a backend that fails its first two
// calls is retried with backoff and ends up serving from the primary.
func TestRouterRetriesTransientFailures(t *testing.T) {
	flaky := &flakyBackend{Backend: buildFleet(t, 1, 2, 2).shards[0].be, left: 2}
	reg := telemetry.NewRegistry()
	r, err := New(Config{
		Shards:     []ShardConfig{{Primary: flaky}},
		MaxRetries: 3,
		Registry:   reg,
		Sleep:      instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ans, err := r.Point(context.Background(), Latest, 0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard0" {
		t.Fatalf("answer = %+v, want clean primary serve", ans.Envelope)
	}
	if got := reg.Counter("router.retries").Value(); got < 2 {
		t.Fatalf("router.retries = %d, want >= 2", got)
	}
}

// TestRouterReplicaFallback: a shard whose primary is dead serves from
// its recovery replica at the exact requested version — a failover, not
// a degradation — and a region across both spans merges the replica's
// part with the live shard's into the single-tree answer.
func TestRouterReplicaFallback(t *testing.T) {
	const steps = 3
	f := buildFleet(t, 2, steps, steps)
	replica := buildFleet(t, 2, steps, steps).shards[0]
	primary := &gatedBackend{Backend: f.shards[0].be}
	primary.down.Store(true)
	reg := telemetry.NewRegistry()
	r, err := New(Config{
		Shards: []ShardConfig{
			{Primary: primary, Replica: replica.be},
			{Primary: f.shards[1].be},
		},
		MaxRetries: 1,
		Registry:   reg,
		Sleep:      instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	// A point owned by shard 0 (origin corner has the smallest keys).
	step := replica.cat.Steps()[steps-1]
	ans, err := r.Point(ctx, step, 0.01, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded {
		t.Fatalf("replica serve at exact version marked degraded: %+v", ans.Envelope)
	}
	if len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard0/replica" {
		t.Fatalf("served_by = %v, want [shard0/replica]", ans.ServedBy)
	}
	if ans.ServedStep != step {
		t.Fatalf("served step %d, want %d", ans.ServedStep, step)
	}
	if reg.Counter("router.fallback.replica").Value() == 0 {
		t.Fatal("router.fallback.replica not incremented")
	}

	box := testBoxes[0] // whole domain: touches both spans
	reg2, err := r.Region(ctx, Latest, box)
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Degraded || reg2.ServedStep != step {
		t.Fatalf("region over a failed-over span: %+v, want a clean serve of %d", reg2.Envelope, step)
	}
	if want := []string{"shard0/replica", "shard1"}; fmt.Sprint(reg2.ServedBy) != fmt.Sprint(want) {
		t.Fatalf("served_by = %v, want %v", reg2.ServedBy, want)
	}
	if want := replayRegion(t, f.ref, step, box); !sameHits(reg2.Hits, want) {
		t.Fatalf("failed-over region: %d hits != replay %d", len(reg2.Hits), len(want))
	}
}

// TestRouterStaleFallback: when a span's sources lack the requested
// version, the scatter retargets to the newest version available
// everywhere and labels the answer degraded/stale_version.
func TestRouterStaleFallback(t *testing.T) {
	// The client pins a version the writer committed but no shard arena
	// received: the shards only hold the two newest-but-older steps, so
	// no source anywhere holds the requested one.
	f := buildFleet(t, 2, 4, 2) // shards hold steps {3,4}
	f.commit(t, false)          // the writer commits step 5
	ref, s0 := f.ref, f.shards[0]
	r, err := New(Config{
		Shards:     f.primaries(),
		MaxRetries: 0,
		Sleep:      instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	refSteps := ref.cat.Steps()
	requested := refSteps[len(refSteps)-1] // step 5: committed upstream, lost by the fleet
	s0Steps := s0.cat.Steps()
	wantServed := s0Steps[len(s0Steps)-1] // step 4: newest step held everywhere

	ans, err := r.Region(context.Background(), requested, testBoxes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded || ans.ServedStep != wantServed {
		t.Fatalf("degraded=%v served=%d, want degraded serve of %d", ans.Degraded, ans.ServedStep, wantServed)
	}
	found := false
	for _, reason := range ans.Reasons {
		if reason == "stale_version" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded_reason = %v, want stale_version", ans.Reasons)
	}
	// The stale answer must still be a real committed version, served
	// bit-identically.
	want := replayRegion(t, ref, wantServed, testBoxes[0])
	if !sameHits(ans.Hits, want) {
		t.Fatalf("stale region is not the committed step-%d answer", wantServed)
	}
}

// TestRouterBreakerAndRecovery: a dying shard trips its breaker and goes
// Down; queries keep flowing via its replica; probes revive it and the
// breaker re-closes after its quiet period.
func TestRouterBreakerAndRecovery(t *testing.T) {
	const steps = 2
	f := buildFleet(t, 2, steps, steps)
	replica := buildFleet(t, 2, steps, steps).shards[0]
	primary0 := &gatedBackend{Backend: f.shards[0].be}
	primary0.down.Store(true)

	var clockMu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	r, err := New(Config{
		Shards:     []ShardConfig{{Primary: primary0, Replica: replica.be}, {Primary: f.shards[1].be}},
		MaxRetries: 0,
		Breaker:    BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Second, HalfOpenSuccesses: 2, Now: clock},
		Health:     HealthConfig{DownAfter: 2, ReviveAfter: 2, DegradeAfter: 3, ClearAfter: 2},
		Sleep:      instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	// Three failing queries: trips the breaker (2 failures) and marks the
	// shard Down (2 failures); every answer still arrives via the replica.
	for i := 0; i < 3; i++ {
		ans, err := r.Point(ctx, Latest, 0.01, 0.01, 0.01)
		if err != nil {
			t.Fatalf("query %d during outage: %v", i, err)
		}
		if ans.Degraded || len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard0/replica" {
			t.Fatalf("query %d during outage: %+v, want a clean replica serve", i, ans.Envelope)
		}
	}
	info := r.Shards()
	if info[0].Health != "down" {
		t.Fatalf("shard0 health = %s, want down (breaker=%s)", info[0].Health, info[0].Breaker)
	}
	if info[0].Breaker != "open" {
		t.Fatalf("shard0 breaker = %s, want open", info[0].Breaker)
	}

	// Shard recovers: probes revive health, the open timeout admits the
	// half-open probes, and successes close the breaker.
	primary0.down.Store(false)
	r.Probe(ctx)
	r.Probe(ctx)
	if got := r.Shards()[0].Health; got != "healthy" {
		t.Fatalf("shard0 health after probes = %s, want healthy", got)
	}
	advance(2 * time.Second)
	for i := 0; i < 3; i++ {
		ans, err := r.Point(ctx, Latest, 0.01, 0.01, 0.01)
		if err != nil {
			t.Fatalf("query %d after recovery: %v", i, err)
		}
		if i == 2 && (len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard0") {
			t.Fatalf("after recovery served_by = %v, want [shard0]", ans.ServedBy)
		}
	}
	if got := r.Shards()[0].Breaker; got != "closed" {
		t.Fatalf("shard0 breaker after recovery = %s, want closed", got)
	}
}

// TestRouterHedgedReads: a slow primary is hedged against the replica;
// the replica's answer wins and is labeled, and the hedge counters move.
func TestRouterHedgedReads(t *testing.T) {
	const steps = 2
	slow := &slowBackend{Backend: buildFleet(t, 1, steps, steps).shards[0].be, delay: 30 * time.Second}
	replica := buildFleet(t, 1, steps, steps).shards[0]
	reg := telemetry.NewRegistry()
	r, err := New(Config{
		Shards:     []ShardConfig{{Primary: slow, Replica: replica.be}},
		MaxRetries: 0,
		HedgeDelay: 5 * time.Millisecond,
		Registry:   reg,
		Sleep:      instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ans, err := r.Point(ctx, Latest, 0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard0/replica" {
		t.Fatalf("served_by = %v, want [shard0/replica]", ans.ServedBy)
	}
	if reg.Counter("router.hedges").Value() == 0 || reg.Counter("router.hedge_wins").Value() == 0 {
		t.Fatalf("hedges=%d hedge_wins=%d, want both > 0",
			reg.Counter("router.hedges").Value(), reg.Counter("router.hedge_wins").Value())
	}
}

// TestHTTPBackendRoundTrip: the HTTP backend over a real pmserve handler
// returns the same answers as the local backend, and maps error statuses
// back to the typed taxonomy.
func TestHTTPBackendRoundTrip(t *testing.T) {
	const steps = 3
	fx := buildFleet(t, 1, steps, steps).shards[0]
	srv := httptest.NewServer(serve.NewHandler(fx.cat, fx.sched))
	defer srv.Close()
	hb := NewHTTPBackend("http", srv.URL, nil)
	ctx := context.Background()

	steps0 := fx.cat.Steps()
	latest := steps0[len(steps0)-1]

	vs, err := hb.Versions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(steps0) {
		t.Fatalf("Versions = %v, want %v", vs, steps0)
	}

	queries := []serve.Query{
		{Class: serve.ClassPoint, Point: [3]float64{0.3, 0.6, 0.9}},
		{Class: serve.ClassRegion, Box: testBoxes[1], Span: UniformSpans(2)[1]},
		{Class: serve.ClassAgg, Box: testBoxes[2], Field: 1, Span: serve.FullKeyRange()},
	}
	for _, v := range []uint64{Latest, latest, steps0[0]} {
		for _, q := range queries {
			want, err := fx.be.Query(ctx, v, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := hb.Query(ctx, v, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Step != want.Step || got.Leaf != want.Leaf || got.Agg != want.Agg || !sameHits(got.Hits, want.Hits) {
				t.Fatalf("%s over HTTP = %+v, want %+v", q.Class, got, want)
			}
		}
	}

	// Version miss maps to NoSuchVersionError with availability.
	_, err = hb.Query(ctx, latest+100, queries[0])
	avail, ok := availableVersions(err)
	if !ok || len(avail) != len(steps0) {
		t.Fatalf("version miss over HTTP = %v (avail %v), want NoSuchVersionError with %v", err, avail, steps0)
	}
	if retryable(err) {
		t.Fatal("version miss classified retryable")
	}

	// A dead server maps to ErrBackendDown (retryable).
	srv.Close()
	_, err = hb.Query(ctx, Latest, queries[0])
	if !errors.Is(err, ErrBackendDown) {
		t.Fatalf("dead server error = %v, want ErrBackendDown", err)
	}
	if !retryable(err) {
		t.Fatal("dead server error not retryable")
	}
}

// TestRouterHTTPHandler: the routed HTTP surface carries the provenance
// envelope, reports shard state, and maps router errors onto statuses.
func TestRouterHTTPHandler(t *testing.T) {
	const steps = 2
	f := buildFleet(t, 2, steps, steps)
	s0, s1 := f.shards[0], f.shards[1]
	reg := telemetry.NewRegistry()
	r, err := New(Config{
		Shards:   f.primaries(),
		Registry: reg,
		Sleep:    instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := jsonDecode(resp, &m); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, m
	}

	code, m := get("/v1/point?x=0.5&y=0.5&z=0.5")
	if code != 200 {
		t.Fatalf("point status %d: %v", code, m)
	}
	if m["degraded"] != false {
		t.Fatalf("point degraded = %v", m["degraded"])
	}
	if _, ok := m["served_by"].([]any); !ok {
		t.Fatalf("point served_by missing: %v", m)
	}
	if m["served_version"] == nil || m["requested_version"] == nil {
		t.Fatalf("point envelope incomplete: %v", m)
	}

	code, m = get("/v1/region?x0=0&y0=0&z0=0&x1=1&y1=1&z1=1&limit=3")
	if code != 200 || m["truncated"] != true {
		t.Fatalf("region status %d truncated %v", code, m["truncated"])
	}

	code, m = get("/v1/agg?field=0")
	if code != 200 || m["count"] == nil {
		t.Fatalf("agg status %d: %v", code, m)
	}

	code, _ = get("/v1/region?x0=0.9&y0=0&z0=0&x1=0.1&y1=1&z1=1")
	if code != 400 {
		t.Fatalf("inverted box status %d, want 400", code)
	}

	shardResp, err := srv.Client().Get(srv.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shardList []map[string]any
	if err := json.NewDecoder(shardResp.Body).Decode(&shardList); err != nil {
		t.Fatal(err)
	}
	shardResp.Body.Close()
	if shardResp.StatusCode != 200 || len(shardList) != 2 {
		t.Fatalf("shards status %d, %d entries, want 200 with 2", shardResp.StatusCode, len(shardList))
	}

	// Requesting a newer-than-anything version degrades to the newest
	// committed one with explicit markers.
	code, m = get("/v1/point?x=0.5&y=0.5&z=0.5&version=99999")
	if code != 200 || m["degraded"] != true {
		t.Fatalf("future version: status %d degraded %v", code, m["degraded"])
	}

	// All shards dead: routed queries return 503 + Retry-After.
	s0.cat.Close()
	s0.sched.Close()
	s1.cat.Close()
	s1.sched.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/point?x=0.5&y=0.5&z=0.5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("all-down status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("all-down response missing Retry-After")
	}
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestRouterRejectsNonFiniteParams: NaN and the infinities parse as floats
// but are not coordinates; the routed surface refuses them with 400 at the
// parameter. Every shard is down, so a request that got as far as routing
// would answer 503 instead.
func TestRouterRejectsNonFiniteParams(t *testing.T) {
	f := buildFleet(t, 2, 1, 1)
	g0, g1 := &gatedBackend{Backend: f.shards[0].be}, &gatedBackend{Backend: f.shards[1].be}
	r, err := New(Config{
		Shards: []ShardConfig{{Primary: g0}, {Primary: g1}},
		Sleep:  instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := NewHandler(r)
	get := func(path string) (int, serve.ErrorBody) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var body serve.ErrorBody
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("GET %s: bad body %q: %v", path, rec.Body, err)
			}
		}
		return rec.Code, body
	}

	paths := []string{
		"/v1/point?y=0.5&z=0.5&x=",
		"/v1/point?x=0.5&y=0.5&z=",
		"/v1/region?y0=0&z0=0&x1=1&y1=1&z1=1&x0=",
		"/v1/region?x0=0&y0=0&z0=0&x1=1&y1=1&z1=",
		"/v1/agg?field=0&x0=0&z0=0&x1=1&y1=1&z1=1&y0=",
		"/v1/agg?field=0&x0=0&y0=0&z0=0&y1=1&z1=1&x1=",
	}
	for _, path := range paths {
		if code, _ := get(path + "0.5"); code != http.StatusOK {
			t.Fatalf("GET %s0.5: status %d with every shard up", path, code)
		}
	}
	g0.down.Store(true)
	g1.down.Store(true)
	for _, path := range paths {
		if code, _ := get(path + "0.5"); code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s0.5: status %d with every shard down, want 503", path, code)
		}
		for _, raw := range []string{"NaN", "Inf", "-Inf", "%2BInf", "infinity"} {
			code, body := get(path + raw)
			if code != http.StatusBadRequest || body.Error == "" {
				t.Errorf("GET %s%s: status %d, error %q; want 400 with a message", path, raw, code, body.Error)
			}
			// Box parameters are refused by name, not as a bad region.
			if !strings.HasPrefix(path, "/v1/point") && !strings.Contains(body.Error, "must be finite") {
				t.Errorf("GET %s%s: error %q does not name the non-finite parameter", path, raw, body.Error)
			}
		}
	}
}

// TestRouterRejectsWrongStepAnswers: an answer from another step than the
// explicit one asked for is a failing backend, for every query class
// alike: with no other source the query is unavailable, and with a
// recovery replica the replica serves the span.
func TestRouterRejectsWrongStepAnswers(t *testing.T) {
	const steps = 2
	f := buildFleet(t, 1, steps, steps)
	skewed := &skewedBackend{Backend: f.shards[0].be}
	alone, err := New(Config{Shards: []ShardConfig{{Primary: skewed}}, MaxRetries: 0, Sleep: instantSleep})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	ctx := context.Background()
	if _, err := alone.Point(ctx, Latest, 0.5, 0.5, 0.5); !errors.Is(err, ErrUnavailable) {
		t.Errorf("point from a wrong-step backend: err = %v, want ErrUnavailable", err)
	}
	if _, err := alone.Region(ctx, Latest, testBoxes[1]); !errors.Is(err, ErrUnavailable) {
		t.Errorf("region from a wrong-step backend: err = %v, want ErrUnavailable", err)
	}
	if _, err := alone.Aggregate(ctx, Latest, 0, testBoxes[1]); !errors.Is(err, ErrUnavailable) {
		t.Errorf("agg from a wrong-step backend: err = %v, want ErrUnavailable", err)
	}

	replica := buildFleet(t, 1, steps, steps).shards[0]
	r, err := New(Config{
		Shards:     []ShardConfig{{Primary: skewed, Replica: replica.be}},
		MaxRetries: 0,
		Sleep:      instantSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ans, err := r.Point(ctx, Latest, 0.01, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard0/replica" {
		t.Fatalf("answer = %+v, want a clean serve from [shard0/replica]", ans.Envelope)
	}
	s, err := f.ref.cat.Acquire(ans.ServedStep)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if want, err := s.Point(0.01, 0.01, 0.01); err != nil || ans.Leaf != want {
		t.Fatalf("point = %+v, want %+v (%v)", ans.Leaf, want, err)
	}
}

// TestHTTPBackendSendsFilteringSpans: every span but the full one filters,
// over HTTP as in process — {0, 0} is the single key 0, which no leaf of
// a refined mesh has, not "no filter".
func TestHTTPBackendSendsFilteringSpans(t *testing.T) {
	fx := buildFleet(t, 1, 2, 2).shards[0]
	srv := httptest.NewServer(serve.NewHandler(fx.cat, fx.sched))
	defer srv.Close()
	hb := NewHTTPBackend("http", srv.URL, nil)
	ctx := context.Background()
	for _, span := range []serve.KeyRange{{}, {Lo: 0, Hi: 1 << 60}, serve.FullKeyRange()} {
		q := serve.Query{Class: serve.ClassRegion, Box: testBoxes[0], Span: span}
		local, err := fx.be.Query(ctx, Latest, q)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := hb.Query(ctx, Latest, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range append(local.Hits, remote.Hits...) {
			if k := uint64(h.Code); k < span.Lo || k > span.Hi {
				t.Fatalf("span %+v: hit %v outside it", span, h.Code)
			}
		}
		if !sameHits(local.Hits, remote.Hits) {
			t.Fatalf("span %+v: %d hits over HTTP, %d in process", span, len(remote.Hits), len(local.Hits))
		}
		if span.IsFull() && len(local.Hits) == 0 {
			t.Fatal("fixture degenerate: no leaves")
		}
	}
}

// TestRoutedKeySpansMatchPmserve: a routed region or aggregate with
// klo/khi equals pmserve's answer to the same request over the same
// committed data, whether the span lies inside one shard, crosses shard
// boundaries, or meets no leaf in the box; only shards whose span meets
// the requested one are asked.
func TestRoutedKeySpansMatchPmserve(t *testing.T) {
	const steps = 3
	f := buildFleet(t, 3, steps, steps)
	r, err := New(Config{Shards: f.primaries(), Sleep: instantSleep})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pmserve, routed := serve.NewHandler(f.ref.cat, f.ref.sched), NewHandler(r)
	get := func(h http.Handler, path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	spans := r.Map()
	b0, b1 := spans.Span(1).Lo, spans.Span(2).Lo
	for _, kr := range []serve.KeyRange{
		{Lo: 0, Hi: 0},
		{Lo: b0 + 1<<40, Hi: b0 + 1<<50},
		{Lo: b0 - 1<<50, Hi: b1 + 1<<50},
		{Lo: b1 - 1, Hi: b1},
		{Lo: 1 << 20, Hi: math.MaxUint64},
	} {
		asked := 0
		for i := 0; i < spans.Len(); i++ {
			if _, ok := spans.Span(i).Intersect(kr); ok {
				asked++
			}
		}
		for bi, box := range testBoxes {
			for _, class := range []serve.Class{serve.ClassRegion, serve.ClassAgg} {
				req := serve.Request{Query: serve.Query{Class: class, Box: box, Field: bi % core.DataWords, Span: kr}, Version: serve.Latest}
				path := req.Path()
				want, err := serve.DecodeResult(class, get(pmserve, path))
				if err != nil {
					t.Fatal(err)
				}
				body := get(routed, path)
				got, err := serve.DecodeResult(class, body)
				if err != nil {
					t.Fatal(err)
				}
				// Shards fold their own partials, so a routed aggregate sums in
				// a different order: it equals pmserve's per-shard answers
				// merged, and pmserve's one answer up to rounding.
				var merged serve.AggResult
				for i := 0; i < spans.Len(); i++ {
					if part, ok := spans.Span(i).Intersect(kr); ok && class == serve.ClassAgg {
						preq := req
						preq.Span = part
						p, err := serve.DecodeResult(class, get(pmserve, preq.Path()))
						if err != nil {
							t.Fatal(err)
						}
						merged.Merge(p.Agg)
					}
				}
				near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
				if got.Step != want.Step || got.Agg != merged || !sameHits(got.Hits, want.Hits) ||
					got.Agg.Count != want.Agg.Count || got.Agg.Min != want.Agg.Min || got.Agg.Max != want.Agg.Max ||
					!near(got.Agg.Sum, want.Agg.Sum) || !near(got.Agg.VolSum, want.Agg.VolSum) {
					t.Fatalf("%s: routed %+v, pmserve %+v (per shard %+v)", path, got, want, merged)
				}
				var env serve.Envelope
				if err := json.Unmarshal(body, &env); err != nil {
					t.Fatal(err)
				}
				if len(env.ServedBy) > asked {
					t.Fatalf("%s: served by %v, but only %d shard spans meet [%d, %d]", path, env.ServedBy, asked, kr.Lo, kr.Hi)
				}
			}
		}
	}
}

// TestParamErrorsMatchAcrossSurfaces: pmserve and the router parse
// requests with one parser, so a bad parameter gets the same 400 and the
// same message from both.
func TestParamErrorsMatchAcrossSurfaces(t *testing.T) {
	f := buildFleet(t, 2, 1, 1)
	r, err := New(Config{Shards: f.primaries(), Sleep: instantSleep})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	surfaces := []http.Handler{serve.NewHandler(f.ref.cat, f.ref.sched), NewHandler(r)}
	for _, tc := range []struct{ path, msg string }{
		{"/v1/point?x=0.5&y=0.5&z=0.5&version=abc", "version must be a step number"},
		{"/v1/region?x0=0&y0=0&z0=0&x1=1&y1=1&z1=1&version=-1", "version must be a step number"},
		{"/v1/agg?field=0&version=1.5", "version must be a step number"},
		{"/v1/point?x=0.5&y=0.5", "point needs float parameters x, y, z"},
		{"/v1/region?x0=0&y0=0&z0=0&x1=1&y1=1", `missing parameter "z1"`},
		{"/v1/region?x0=0&y0=0&z0=0&x1=1&y1=1&z1=1&limit=-2", "limit must be a non-negative integer"},
		{"/v1/agg?field=zero", "agg needs an integer field parameter"},
		{"/v1/agg?field=0&klo=x", "klo must be an unsigned integer"},
		{"/v1/agg?field=0&klo=5&khi=4", "klo must not exceed khi"},
		{"/v1/region?x0=0&y0=0&z0=0&x1=1&y1=1&z1=1&klo=1&khi=0", "klo must not exceed khi"},
		{"/v1/agg?field=9", serve.ErrBadField.Error()},
		{"/v1/agg?field=-1&x0=0&y0=0&z0=0&x1=1&y1=1&z1=1", serve.ErrBadField.Error()},
	} {
		for i, h := range surfaces {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
			var body serve.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("surface %d, GET %s: bad body %q", i, tc.path, rec.Body)
			}
			if rec.Code != http.StatusBadRequest || body.Error != tc.msg {
				t.Errorf("surface %d, GET %s: %d %q, want 400 %q", i, tc.path, rec.Code, body.Error, tc.msg)
			}
		}
	}
}

// TestHTTPBackendStatusesAndBodyCap: every answer status maps onto the
// typed taxonomy, and an answer longer than the body cap is refused as
// such — not misreported as malformed JSON.
func TestHTTPBackendStatusesAndBodyCap(t *testing.T) {
	versions := `{"versions":[3],"latest":3}`
	tooLarge := func(err error) bool {
		var e *BodyTooLargeError
		return errors.As(err, &e) && e.Limit == maxBody && strings.Contains(e.Error(), fmt.Sprintf("%d-byte", maxBody))
	}
	for _, tc := range []struct {
		name   string
		status int
		body   string
		size   int // pad the body with spaces to this many bytes
		ok     func(error) bool
	}{
		{"fits exactly", 200, versions, maxBody, func(err error) bool { return err == nil }},
		{"one byte over", 200, versions, maxBody + 1, tooLarge},
		{"far over", 200, versions, maxBody + 1<<20, tooLarge},
		{"malformed", 200, `{"versions":`, 0, func(err error) bool {
			var e *json.SyntaxError
			return errors.As(err, &e)
		}},
		{"saturated", 503, `{"error":"full","retry_after_ms":70}`, 0, func(err error) bool {
			var e *serve.SaturatedError
			return errors.As(err, &e) && e.RetryAfter == 70*time.Millisecond
		}},
		{"version miss", 404, `{"error":"miss","available":[1,2]}`, 0, func(err error) bool {
			av, ok := availableVersions(err)
			return ok && len(av) == 2
		}},
		{"no such endpoint", 404, ``, 0, func(err error) bool { return errors.Is(err, ErrBackendDown) }},
		{"not held", 421, `{"error":"filler"}`, 0, func(err error) bool { return errors.Is(err, serve.ErrNotHeld) && !retryable(err) }},
		{"timed out", 504, `{"error":"late"}`, 0, func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		{"bad request", 400, `{"error":"bad"}`, 0, func(err error) bool { return err != nil && !retryable(err) }},
		{"server error", 500, `{"error":"boom"}`, 0, func(err error) bool { return errors.Is(err, ErrBackendDown) }},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(tc.status)
			_, _ = w.Write([]byte(tc.body))
			if pad := tc.size - len(tc.body); pad > 0 {
				_, _ = w.Write(bytes.Repeat([]byte{' '}, pad))
			}
		}))
		_, err := NewHTTPBackend("t", srv.URL, nil).Versions(context.Background())
		srv.Close()
		if !tc.ok(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}
