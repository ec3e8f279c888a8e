package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/telemetry"
)

// checkIdentity asserts the trace accounting identity: the span durations
// plus the derived overhead equal the end-to-end latency exactly, and
// overhead is non-negative (spans are sequential, disjoint phases).
func checkIdentity(t *testing.T, rt telemetry.RequestTrace) {
	t.Helper()
	var spanSum int64
	for _, sp := range rt.Spans {
		spanSum += sp.DurNs
	}
	if spanSum+rt.OverheadNs != rt.TotalNs {
		t.Fatalf("trace %d (%s): spans(%d) + overhead(%d) != total(%d)",
			rt.ID, rt.Kind, spanSum, rt.OverheadNs, rt.TotalNs)
	}
	if rt.OverheadNs < 0 {
		t.Fatalf("trace %d (%s): negative overhead %d", rt.ID, rt.Kind, rt.OverheadNs)
	}
}

func spanNames(rt telemetry.RequestTrace) map[string]telemetry.SpanRecord {
	m := map[string]telemetry.SpanRecord{}
	for _, sp := range rt.Spans {
		m[sp.Name] = sp
	}
	return m
}

// traceQuery serves path on srv and returns the request trace its
// X-Trace-Id names, after checking its kind, step and accounting identity.
func traceQuery(t *testing.T, srv *httptest.Server, path, kind string, step uint64) telemetry.RequestTrace {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	// Read to EOF: the handler finishes its trace after it wrote the
	// answer, and the body only ends once the handler has returned.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s -> %d", path, resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatalf("%s: no X-Trace-Id header", path)
	}
	tr, err := srv.Client().Get(srv.URL + "/v1/trace?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	var rt telemetry.RequestTrace
	if err := json.NewDecoder(tr.Body).Decode(&rt); err != nil {
		t.Fatalf("/v1/trace?id=%s: %v", id, err)
	}
	tr.Body.Close()
	if rt.Kind != kind {
		t.Fatalf("trace kind = %q, want %q", rt.Kind, kind)
	}
	if rt.Step != step {
		t.Fatalf("trace step = %d, want %d", rt.Step, step)
	}
	checkIdentity(t, rt)
	return rt
}

// requireSpans fails unless the trace holds every one of want, and a
// device_read span that carries modeled time.
func requireSpans(t *testing.T, label string, rt telemetry.RequestTrace, want ...string) map[string]telemetry.SpanRecord {
	t.Helper()
	sp := spanNames(rt)
	for _, w := range want {
		if _, ok := sp[w]; !ok {
			t.Fatalf("%s trace missing %q span (have %v)", label, w, rt.Spans)
		}
	}
	if sp["device_read"].ModeledNs == 0 {
		t.Fatalf("%s device_read span carries no modeled time", label)
	}
	return sp
}

var traceQueries = []struct {
	path string
	kind string
}{
	{"/v1/point?x=0.5&y=0.5&z=0.82", "point"},
	{"/v1/region?x0=0.3&y0=0.3&z0=0.3&x1=0.7&y1=0.7&z1=0.9", "region"},
	{"/v1/agg?field=0", "agg"},
}

// TestRequestTraceEndToEnd: every served query carries a trace that
// decomposes into queue-wait, index, and device-read time, retrievable
// by the X-Trace-Id the response carries. The index_build span shows the
// index's lifecycle: a version the writer publishes right after its
// commit carries the writer's index and never builds one; a restored
// version answers its first point by a tree descent, reads charged and
// nothing built, and builds the index on its first region.
func TestRequestTraceEndToEnd(t *testing.T) {
	tree, _ := buildTree(t, 3)
	reg := telemetry.NewRegistry()
	cat, s0 := publish(t, tree, Config{Registry: reg})
	s0.Close()
	defer cat.Close()
	sched := NewScheduler(SchedulerConfig{Registry: reg})
	defer sched.Close()
	h := NewHandler(cat, sched)
	sink := telemetry.NewTraceSink(32)
	h.SetTraceSink(sink)
	if h.TraceSink() != sink {
		t.Fatal("TraceSink accessor")
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, q := range traceQueries {
		rt := traceQuery(t, srv, q.path, q.kind, tree.CommittedStep())
		sp := requireSpans(t, "writer-published "+q.kind, rt, "queue_wait", "leaf_scan", "device_read")
		if _, ok := sp["index_build"]; ok {
			t.Fatalf("writer-published %s: index_build span on a version that carries the writer's index", q.kind)
		}
	}

	// /v1/trace with no id lists recent traces (the three queries plus the
	// trace lookups are not traced — only query endpoints are).
	tr, err := srv.Client().Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	var all []telemetry.RequestTrace
	if err := json.NewDecoder(tr.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if len(all) != len(traceQueries) {
		t.Fatalf("retained %d traces, want %d", len(all), len(traceQueries))
	}

	// Per-class scheduler histograms fed by the same requests.
	snap := reg.Snapshot()
	for _, kind := range []string{"point", "region", "agg"} {
		if snap.Histograms["serve.queue_wait_ns."+kind].Count == 0 {
			t.Fatalf("no queue-wait samples for class %q", kind)
		}
		if snap.Histograms["serve.service_ns."+kind].Count == 0 {
			t.Fatalf("no service-time samples for class %q", kind)
		}
	}

	// The same version restored from its image carries no index.
	rtree, err := core.Restore(core.Config{NVBMDevice: tree.NVBMDevice().Clone()})
	if err != nil {
		t.Fatal(err)
	}
	defer rtree.Close()
	rcat, rs := publish(t, rtree, Config{})
	rs.Close()
	defer rcat.Close()
	rh := NewHandler(rcat, sched)
	rh.SetTraceSink(telemetry.NewTraceSink(32))
	rsrv := httptest.NewServer(rh)
	defer rsrv.Close()
	for i, q := range traceQueries {
		rt := traceQuery(t, rsrv, q.path, q.kind, tree.CommittedStep())
		sp := requireSpans(t, "restored "+q.kind, rt, "queue_wait", "leaf_scan", "device_read")
		// The point descends; the region that follows pays the build.
		if _, ok := sp["index_build"]; ok != (i == 1) {
			t.Fatalf("restored query %d (%s): index_build presence = %v, want %v", i, q.kind, ok, i == 1)
		}
	}
}

// TestRequestTraceConcurrentSoak: under concurrent load (run with -race
// in CI), every served query's trace still satisfies the accounting
// identity and lands in the sink.
func TestRequestTraceConcurrentSoak(t *testing.T) {
	tree, _ := buildTree(t, 2)
	reg := telemetry.NewRegistry()
	cat, s0 := publish(t, tree, Config{Registry: reg})
	s0.Close()
	defer cat.Close()
	sched := NewScheduler(SchedulerConfig{Workers: 4, QueueDepth: 256, Registry: reg})
	defer sched.Close()
	h := NewHandler(cat, sched)
	sink := telemetry.NewTraceSink(1024)
	h.SetTraceSink(sink)
	srv := httptest.NewServer(h)
	defer srv.Close()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var path string
				switch i % 3 {
				case 0:
					path = fmt.Sprintf("/v1/point?x=0.%d&y=0.5&z=0.5", (c+i)%10)
				case 1:
					path = "/v1/region?x0=0.2&y0=0.2&z0=0.2&x1=0.8&y1=0.8&z1=0.8"
				default:
					path = "/v1/agg?field=0"
				}
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s -> %d", path, resp.StatusCode)
					return
				}
				if resp.Header.Get("X-Trace-Id") == "" {
					errs <- fmt.Errorf("%s: served query without a trace", path)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A client can read its response before the handler's deferred trace
	// Finish runs; Close waits for every handler to return.
	srv.Close()

	if sink.Total() != clients*perClient {
		t.Fatalf("sink finished %d traces, want %d (every served query traced)", sink.Total(), clients*perClient)
	}
	for _, rt := range sink.Recent(0) {
		checkIdentity(t, rt)
		if rt.Err != "" {
			t.Fatalf("trace %d unexpectedly failed: %s", rt.ID, rt.Err)
		}
	}
}

// TestSchedulerRejectionObservability: a saturated admission queue must
// increment serve.sched.rejected, record a flight event, and surface
// RetryAfter in the HTTP 503's Retry-After header.
func TestSchedulerRejectionObservability(t *testing.T) {
	tree, _ := buildTree(t, 2)
	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(64)
	cat, s0 := publish(t, tree, Config{Registry: reg})
	s0.Close()
	defer cat.Close()
	sched := NewScheduler(SchedulerConfig{
		Workers:    1,
		QueueDepth: 1,
		BatchSize:  1,
		RetryAfter: 1700 * time.Millisecond,
		Registry:   reg,
		Recorder:   flight,
	})
	defer sched.Close()
	srv := httptest.NewServer(NewHandler(cat, sched))
	defer srv.Close()

	// Occupy the single worker, then the single queue slot.
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = sched.Do("block", func() (any, error) { close(started); <-gate; return nil, nil })
	}()
	<-started
	go func() {
		defer wg.Done()
		_, _ = sched.Do("queued", func() (any, error) { return nil, nil })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges["serve.queue.depth"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/point?x=0.5&y=0.5&z=0.5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(gate)
	wg.Wait()
	if resp.StatusCode != 503 {
		t.Fatalf("saturated query -> %d, want 503", resp.StatusCode)
	}
	// RetryAfter is 1.7s; the header rounds down to whole seconds with a
	// floor of 1, so it must read exactly "1".
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After header = %q, want \"1\"", got)
	}

	if n := reg.Counter("serve.sched.rejected").Value(); n == 0 {
		t.Fatal("serve.sched.rejected never incremented")
	}
	if n := reg.Counter("serve.rejected").Value(); n == 0 {
		t.Fatal("serve.rejected (legacy name) never incremented")
	}
	found := false
	for _, ev := range flight.Events() {
		if ev.Kind == "reject" {
			found = true
		}
	}
	if !found {
		t.Fatal("no reject event in the flight recorder")
	}
}

// TestTraceEndpointWithoutSink: /v1/trace is a clean 404 when tracing is
// off, and query responses carry no trace header.
func TestTraceEndpointWithoutSink(t *testing.T) {
	tree, _ := buildTree(t, 2)
	cat, s0 := publish(t, tree, Config{})
	s0.Close()
	defer cat.Close()
	sched := NewScheduler(SchedulerConfig{})
	defer sched.Close()
	srv := httptest.NewServer(NewHandler(cat, sched))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/point?x=0.5&y=0.5&z=0.5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("point -> %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Fatal("untraced handler emitted X-Trace-Id")
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/v1/trace without a sink -> %d, want 404", resp.StatusCode)
	}
}
