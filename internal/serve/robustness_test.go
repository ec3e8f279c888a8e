package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

// TestSchedulerDropsDeadContexts: a request whose context dies while it
// queues must be dropped by the worker before its fn runs — servicing
// the dead would steal capacity from live requests under exactly the
// load that queued it — and a context already dead at admission must be
// rejected without queuing at all.
func TestSchedulerDropsDeadContexts(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4, Registry: reg})
	defer s.Close()

	// Occupy the single worker so the next submit has to queue.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Do("block", func() (any, error) {
			close(started)
			<-release
			return nil, nil
		})
		if err != nil {
			t.Errorf("blocking request failed: %v", err)
		}
	}()
	<-started

	// Queue a request, kill its context while it waits, then free the
	// worker: the fn must never run and the context's error must come back.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	queued := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(queued)
		_, err := s.DoCtx(ctx, nil, "doomed", func() (any, error) {
			ran.Store(true)
			return nil, nil
		})
		if err != context.Canceled {
			t.Errorf("queued-then-canceled request: err = %v, want context.Canceled", err)
		}
	}()
	<-queued
	time.Sleep(5 * time.Millisecond) // let the submit reach the queue
	cancel()
	close(release)
	wg.Wait()
	if ran.Load() {
		t.Fatal("canceled request's fn ran anyway")
	}

	// Dead at admission: rejected synchronously, never queued.
	dead, kill := context.WithCancel(context.Background())
	kill()
	ran.Store(false)
	if _, err := s.DoCtx(dead, nil, "dead", func() (any, error) {
		ran.Store(true)
		return nil, nil
	}); err != context.Canceled {
		t.Fatalf("dead-at-admission: err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("dead-at-admission request's fn ran")
	}
	if got := reg.Snapshot().Counters["serve.sched.dropped"]; got != 2 {
		t.Fatalf("serve.sched.dropped = %d, want 2", got)
	}
}

// TestRetryAfterHeaderClamp: the Retry-After header truncates the hint
// to whole seconds and clamps to at least 1 — a sub-second hint must
// never render as "0", which clients read as "retry immediately" —
// while the JSON body keeps the precise millisecond hint.
func TestRetryAfterHeaderClamp(t *testing.T) {
	cases := []struct {
		hint   time.Duration
		header string
	}{
		{0, "1"},
		{10 * time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "1"}, // truncated, not rounded
		{2 * time.Second, "2"},
		{90 * time.Second, "90"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		WriteError(rec, &SaturatedError{RetryAfter: tc.hint})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("hint %v: status %d, want 503", tc.hint, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.header {
			t.Errorf("hint %v: Retry-After = %q, want %q", tc.hint, got, tc.header)
		}
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("hint %v: bad body: %v", tc.hint, err)
		}
		if body.RetryAfter != tc.hint.Milliseconds() {
			t.Errorf("hint %v: retry_after_ms = %d, want %d", tc.hint, body.RetryAfter, tc.hint.Milliseconds())
		}
	}
}

// TestDrainerShutdown: Shutdown must flip readiness before the first
// refusal, refuse new requests with 503 + Retry-After, and wait for
// in-flight requests to finish — but only up to its timeout.
func TestDrainerShutdown(t *testing.T) {
	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth()
	health.SetReady(true)
	release := make(chan struct{})
	entered := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	d := NewDrainer(inner, health, 3*time.Second, reg)

	// One request in flight when the drain begins.
	inflight := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		d.ServeHTTP(inflight, httptest.NewRequest("GET", "/v1/point", nil))
		close(done)
	}()
	<-entered

	shutdownDone := make(chan bool, 1)
	go func() { shutdownDone <- d.Shutdown(5 * time.Second) }()
	for !d.Draining() {
		time.Sleep(time.Millisecond)
	}

	// Readiness flipped before any refusal: the balancer sees the drain.
	ready := httptest.NewRecorder()
	health.ReadyzHandler().ServeHTTP(ready, httptest.NewRequest("GET", "/readyz", nil))
	if ready.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", ready.Code)
	}

	// New requests are refused, not half-served.
	refused := httptest.NewRecorder()
	d.ServeHTTP(refused, httptest.NewRequest("GET", "/v1/point", nil))
	if refused.Code != http.StatusServiceUnavailable {
		t.Fatalf("refused request: status %d, want 503", refused.Code)
	}
	if got := refused.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("refused request: Retry-After = %q, want \"3\"", got)
	}
	if got := reg.Snapshot().Counters["serve.drain.refused"]; got != 1 {
		t.Fatalf("serve.drain.refused = %d, want 1", got)
	}

	// The in-flight request completes and the drain reports clean.
	close(release)
	<-done
	if inflight.Code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200", inflight.Code)
	}
	if clean := <-shutdownDone; !clean {
		t.Fatal("Shutdown reported timeout with no requests stuck")
	}

	// A wedged in-flight request must not hold the process hostage.
	stuck := NewDrainer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {} // never returns
	}), nil, time.Second, nil)
	go stuck.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	time.Sleep(5 * time.Millisecond)
	if stuck.Shutdown(20 * time.Millisecond) {
		t.Fatal("Shutdown reported clean with a wedged request in flight")
	}
}

// TestCatalogEvictionRace: a writer publishing new versions through a
// keep-1 catalog races readers that acquire, query, and close late —
// deliberately holding snapshots across the eviction of their version.
// Run under -race: an evicted version must stay fully servable until its
// last outstanding snapshot closes.
func TestCatalogEvictionRace(t *testing.T) {
	d := sim.NewDroplet(sim.DropletConfig{Steps: 40})
	tree := core.Create(core.Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	tree.SetFeatures(d.Feature(1))
	cat := NewCatalog(tree, Config{Keep: 1})

	handles := make(chan *Snapshot, 64)
	var late []*Snapshot // closed only after every version they pin is evicted
	var lateMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(keepEvery int) {
			defer wg.Done()
			for s := range handles {
				if n := s.LeafCount(); n == 0 {
					t.Errorf("snapshot step %d: empty leaf index", s.Step())
				}
				if _, err := s.Point(0.5, 0.5, 0.5); err != nil {
					t.Errorf("snapshot step %d: point query: %v", s.Step(), err)
				}
				if s.Step()%uint64(keepEvery) == 0 {
					lateMu.Lock()
					late = append(late, s) // outlive the eviction
					lateMu.Unlock()
				} else {
					s.Close()
				}
			}
		}(2 + i)
	}

	// Writer thread: commit and publish 24 steps; Keep:1 evicts the
	// previous version on every publish while readers still hold it.
	for s := 1; s <= 24; s++ {
		sim.Step(tree, d, s, testMaxLevel)
		tree.SetFeatures(d.Feature(s + 1))
		tree.Persist()
		snap, err := cat.Publish()
		if err != nil {
			t.Fatalf("publish step %d: %v", s, err)
		}
		for i := 0; i < 3; i++ {
			h, err := cat.AcquireLatest()
			if err != nil {
				t.Fatalf("acquire step %d: %v", s, err)
			}
			handles <- h
		}
		snap.Close()
	}
	close(handles)
	wg.Wait()

	// Every late handle still answers queries after its version left the
	// catalog — and after the catalog itself has closed.
	cat.Close()
	for _, s := range late {
		if _, err := s.Point(0.25, 0.75, 0.5); err != nil {
			t.Errorf("late snapshot step %d after catalog close: %v", s.Step(), err)
		}
		s.Close()
	}
}

// paramQueries are the three query endpoints with one coordinate
// parameter left for the test to fill in, every other one valid.
var paramQueries = []struct{ name, path string }{
	{"point", "/v1/point?y=0.5&z=0.5&x="},
	{"point/z", "/v1/point?x=0.5&y=0.5&z="},
	{"region/min", "/v1/region?y0=0&z0=0&x1=1&y1=1&z1=1&x0="},
	{"region/max", "/v1/region?x0=0&y0=0&z0=0&x1=1&y1=1&z1="},
	{"agg/min", "/v1/agg?field=0&x0=0&z0=0&x1=1&y1=1&z1=1&y0="},
	{"agg/max", "/v1/agg?field=0&x0=0&y0=0&z0=0&y1=1&z1=1&x1="},
}

// TestNonFiniteParamsRejected: NaN and the infinities parse as floats but
// are not coordinates; every query endpoint refuses them with 400 at the
// parameter, before the request is traced, admitted or handed a snapshot.
func TestNonFiniteParamsRejected(t *testing.T) {
	tree, _ := buildTree(t, 2)
	cat, s := publish(t, tree, Config{})
	s.Close()
	defer cat.Close()
	sched := NewScheduler(SchedulerConfig{})
	defer sched.Close()
	h := NewHandler(cat, sched)
	sink := telemetry.NewTraceSink(8)
	h.SetTraceSink(sink)

	for _, q := range paramQueries {
		for _, raw := range []string{"NaN", "nan", "Inf", "-Inf", "%2BInf", "infinity", "-Infinity"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", q.path+raw, nil))
			var body ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s=%s: bad body %q: %v", q.name, raw, rec.Body, err)
			}
			if rec.Code != http.StatusBadRequest || body.Error == "" {
				t.Errorf("%s=%s: status %d, error %q; want 400 with a message", q.name, raw, rec.Code, body.Error)
			}
			// Box parameters are refused by name, not as a bad region.
			if !strings.HasPrefix(q.name, "point") && !strings.Contains(body.Error, "must be finite") {
				t.Errorf("%s=%s: error %q does not name the non-finite parameter", q.name, raw, body.Error)
			}
		}
		// The same query with a finite value in the hole is served.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", q.path+"0.5", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s=0.5: status %d: %s", q.name, rec.Code, rec.Body)
		}
	}
	if got, want := sink.Total(), uint64(len(paramQueries)); got != want {
		t.Errorf("%d requests were traced, want only the %d finite ones", got, want)
	}
}

// FuzzQueryParams feeds arbitrary strings to a coordinate parameter of
// each query endpoint: the handler answers 200 or 400 with a JSON body,
// never panics, and never serves a value that is not a finite float.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{"NaN", "Inf", "-Inf", "0.5", "1e999", "0x1p-2", "", "0.25&x=NaN", "-0", "1"} {
		f.Add(seed)
	}
	tree, _ := buildTree(f, 2)
	cat, s := publish(f, tree, Config{})
	s.Close()
	f.Cleanup(cat.Close)
	sched := NewScheduler(SchedulerConfig{})
	f.Cleanup(sched.Close)
	h := NewHandler(cat, sched)

	f.Fuzz(func(t *testing.T, raw string) {
		v, perr := strconv.ParseFloat(raw, 64)
		finite := perr == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
		for _, q := range paramQueries {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", q.path+url.QueryEscape(raw), nil))
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s=%q: status %d: %s", q.name, raw, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s=%q: body is not JSON: %s", q.name, raw, rec.Body)
			}
			if rec.Code == http.StatusOK && !finite {
				t.Fatalf("%s=%q: served a non-finite or unparsable coordinate", q.name, raw)
			}
		}
	})
}
