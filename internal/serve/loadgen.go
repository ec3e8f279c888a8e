package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmoctree/internal/telemetry"
)

// Load generation in two disciplines over the same scripted query mix:
//
// Closed loop: N clients each issue one request, wait for the response,
// and immediately issue the next. Offered load adapts to service rate —
// the generator measures the server's latency under its own admission
// control rather than piling up unbounded concurrency.
//
// Open loop (Options.Rate > 0): requests arrive on an external schedule —
// fixed-interval or Poisson — regardless of how fast the server drains
// them, and latency is measured from the *scheduled arrival*, so queueing
// delay counts. This is the discipline that exposes coordinated omission:
// a closed loop slows its own offered load when the server stalls, an
// open loop keeps offering and records the pile-up.
//
// Client-observed latencies are recorded per query class (the /v1/<class>
// path prefix) and summarized as an SLO document: per-class counts and
// latency quantiles. Both cmd/pmserve and cmd/pmrouter drive their handlers
// through it, so single-process and routed serving are measured with the
// same meter.

// SLOClass is one query class's latency summary. Quantile values are
// nanoseconds.
type SLOClass struct {
	Count     uint64             `json:"count"`
	Quantiles map[string]float64 `json:"quantiles"`
}

// OpenLoopStats describes an open-loop run: the arrival schedule it
// offered and the throughput the server actually sustained. ServedRPS
// noticeably below OfferedRPS means the server could not keep up with the
// target rate and the latency quantiles include the resulting queueing.
type OpenLoopStats struct {
	TargetRPS  float64 `json:"target_rps"`
	Poisson    bool    `json:"poisson"`
	OfferedRPS float64 `json:"offered_rps"`
	ServedRPS  float64 `json:"served_rps"`
}

// SLODoc is the checked-in SLO baseline format. OpenLoop is present only
// for open-loop runs.
type SLODoc struct {
	Classes  map[string]SLOClass `json:"classes"`
	OpenLoop *OpenLoopStats      `json:"open_loop,omitempty"`
}

// LoadgenOptions parameterizes RunLoadgenOpts. Zero values mean: 4
// clients, 400 requests, closed loop.
type LoadgenOptions struct {
	Clients  int
	Requests int
	// Rate, when positive, switches to open-loop generation at this many
	// requests per second; Clients then bounds in-flight concurrency, not
	// offered load.
	Rate float64
	// Poisson draws exponential inter-arrival gaps (a Poisson process at
	// Rate) instead of a fixed interval. Only meaningful with Rate > 0.
	Poisson bool
	// Seed makes the Poisson arrival schedule reproducible.
	Seed int64
}

// classOf maps a request path to its query class ("/v1/point?..." ->
// "point").
func classOf(p string) string {
	p = strings.TrimPrefix(p, "/v1/")
	if i := strings.IndexAny(p, "?/"); i >= 0 {
		p = p[:i]
	}
	if p == "" {
		return "other"
	}
	return p
}

// RunLoadgen drives the handler over a loopback listener with `clients`
// closed-loop clients until `requests` total requests have completed,
// cycling through the scripted paths. Returns the per-class SLO summary.
func RunLoadgen(h http.Handler, scriptPath string, clients, requests int) (SLODoc, error) {
	return RunLoadgenOpts(h, scriptPath, LoadgenOptions{Clients: clients, Requests: requests})
}

// RunLoadgenOpts drives the handler over a loopback listener under the
// configured discipline (see LoadgenOptions) and returns the per-class
// SLO summary.
func RunLoadgenOpts(h http.Handler, scriptPath string, opts LoadgenOptions) (SLODoc, error) {
	raw, err := os.ReadFile(scriptPath)
	if err != nil {
		return SLODoc{}, err
	}
	var paths []string
	if err := json.Unmarshal(raw, &paths); err != nil {
		return SLODoc{}, fmt.Errorf("script %s: %w (want a JSON array of request paths)", scriptPath, err)
	}
	if len(paths) == 0 {
		return SLODoc{}, fmt.Errorf("script %s: no request paths", scriptPath)
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Requests <= 0 {
		opts.Requests = 400
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return SLODoc{}, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Client-side latency histograms, one per query class, in a private
	// registry so loadgen numbers never mix into the server's own metrics.
	reg := telemetry.NewRegistry()
	var failures atomic.Int64
	var open *OpenLoopStats
	if opts.Rate > 0 {
		open = runOpenLoop(base, paths, opts, reg, &failures)
	} else {
		runClosedLoop(base, paths, opts, reg, &failures)
	}

	doc := SLODoc{Classes: map[string]SLOClass{}, OpenLoop: open}
	snap := reg.Snapshot()
	for name, hs := range snap.Histograms {
		class := strings.TrimPrefix(name, "loadgen.latency_ns.")
		doc.Classes[class] = SLOClass{
			Count: hs.Count,
			Quantiles: map[string]float64{
				"p50": hs.P50,
				"p95": hs.P95,
				"p99": hs.P99,
			},
		}
	}
	if f := failures.Load(); f > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d request(s) failed or were rejected (excluded from quantiles)\n", f)
	}
	return doc, nil
}

// doRequest issues one request and records its latency from t0 (the
// scheduled arrival for open loop, the send for closed loop). Failures
// and admission rejections (503 + Retry-After: part of load behavior, but
// their latency is the rejection fast path, not service) stay out of the
// class histograms.
func doRequest(client *http.Client, base, p string, t0 time.Time,
	reg *telemetry.Registry, failures *atomic.Int64) bool {
	resp, err := client.Get(base + p)
	if err != nil {
		failures.Add(1)
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		failures.Add(1)
		return false
	}
	reg.Histogram("loadgen.latency_ns." + classOf(p)).Observe(uint64(time.Since(t0)))
	return true
}

func runClosedLoop(base string, paths []string, opts LoadgenOptions,
	reg *telemetry.Registry, failures *atomic.Int64) {
	var issued atomic.Int64
	var wg sync.WaitGroup
	wg.Add(opts.Clients)
	for c := 0; c < opts.Clients; c++ {
		go func(offset int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := offset; ; i++ {
				if issued.Add(1) > int64(opts.Requests) {
					return
				}
				doRequest(client, base, paths[i%len(paths)], time.Now(), reg, failures)
			}
		}(c)
	}
	wg.Wait()
}

// runOpenLoop generates the arrival schedule on one goroutine and drains
// it with opts.Clients workers. The arrivals channel is buffered for the
// whole run so a stalled server never pushes back on the generator —
// requests keep "arriving" and their queueing shows up in the measured
// latency, because each worker stamps latency from the scheduled arrival
// it dequeues, not from when it got around to sending.
func runOpenLoop(base string, paths []string, opts LoadgenOptions,
	reg *telemetry.Registry, failures *atomic.Int64) *OpenLoopStats {
	type arrival struct {
		path  string
		sched time.Time
	}
	arrivals := make(chan arrival, opts.Requests)
	start := time.Now()
	var lastSched time.Time
	go func() {
		defer close(arrivals)
		rng := rand.New(rand.NewSource(opts.Seed))
		next := start
		for i := 0; i < opts.Requests; i++ {
			if opts.Poisson {
				// Exponential inter-arrival gap with mean 1/Rate; clamp the
				// U=0 tail rather than emitting an infinite gap.
				u := rng.Float64()
				if u < 1e-12 {
					u = 1e-12
				}
				next = next.Add(time.Duration(-math.Log(u) / opts.Rate * float64(time.Second)))
			} else {
				next = start.Add(time.Duration(float64(i+1) / opts.Rate * float64(time.Second)))
			}
			time.Sleep(time.Until(next))
			arrivals <- arrival{path: paths[i%len(paths)], sched: next}
			lastSched = next
		}
	}()

	var served atomic.Int64
	var wg sync.WaitGroup
	wg.Add(opts.Clients)
	for c := 0; c < opts.Clients; c++ {
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for a := range arrivals {
				if doRequest(client, base, a.path, a.sched, reg, failures) {
					served.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	st := &OpenLoopStats{TargetRPS: opts.Rate, Poisson: opts.Poisson}
	if offered := lastSched.Sub(start).Seconds(); offered > 0 {
		st.OfferedRPS = float64(opts.Requests) / offered
	}
	if elapsed > 0 {
		st.ServedRPS = float64(served.Load()) / elapsed
	}
	return st
}

// WriteSLO writes the document as stable, indented JSON (classes sorted).
func WriteSLO(w io.Writer, doc SLODoc) error {
	// json.Marshal sorts map keys, so the output is already stable.
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// SummarizeSLO renders a one-line-per-class summary for stderr.
func SummarizeSLO(doc SLODoc) string {
	classes := make([]string, 0, len(doc.Classes))
	for c := range doc.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var sb strings.Builder
	if ol := doc.OpenLoop; ol != nil {
		shape := "fixed-rate"
		if ol.Poisson {
			shape = "poisson"
		}
		fmt.Fprintf(&sb, "  open loop (%s): target=%.0frps offered=%.0frps served=%.0frps\n",
			shape, ol.TargetRPS, ol.OfferedRPS, ol.ServedRPS)
	}
	for _, c := range classes {
		sc := doc.Classes[c]
		fmt.Fprintf(&sb, "  %-10s n=%-6d p50=%.0fus p95=%.0fus p99=%.0fus\n",
			c, sc.Count, sc.Quantiles["p50"]/1e3, sc.Quantiles["p95"]/1e3, sc.Quantiles["p99"]/1e3)
	}
	return sb.String()
}
