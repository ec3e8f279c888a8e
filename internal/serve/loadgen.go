package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
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

// Open-loop load generation over a scripted query mix: requests arrive
// on an external schedule — fixed-interval or Poisson — regardless of how
// fast the server drains them, and latency is measured from the
// *scheduled arrival*, so queueing delay counts. This is the discipline
// that exposes coordinated omission: a closed loop slows its own offered
// load when the server stalls, an open loop keeps offering and records
// the pile-up.
//
// Client-observed latencies are recorded per query class (the /v1/<class>
// path prefix) and summarized as an SLO document: per-class counts and
// latency quantiles plus the offered and served rates. Both cmd/pmserve
// and cmd/pmrouter drive their handlers through it, with one flag family
// (LoadFlags), so single-process and routed serving are measured with the
// same meter.

// SLOClass is one query class's latency summary. Quantile values are
// nanoseconds.
type SLOClass struct {
	Count     uint64             `json:"count"`
	Quantiles map[string]float64 `json:"quantiles"`
}

// OpenLoopStats describes a run: the arrival schedule it offered and the
// throughput the server actually sustained. ServedRPS
// noticeably below OfferedRPS means the server could not keep up with the
// target rate and the latency quantiles include the resulting queueing.
type OpenLoopStats struct {
	TargetRPS  float64 `json:"target_rps"`
	Poisson    bool    `json:"poisson"`
	OfferedRPS float64 `json:"offered_rps"`
	ServedRPS  float64 `json:"served_rps"`
}

// SLODoc is the SLO document a load run writes.
type SLODoc struct {
	Classes  map[string]SLOClass `json:"classes"`
	OpenLoop OpenLoopStats       `json:"open_loop"`
}

// LoadgenOptions parameterizes Loadgen. Zero Clients and Requests mean 4
// and 400; Rate is required.
type LoadgenOptions struct {
	// Clients bounds in-flight concurrency, not offered load.
	Clients  int
	Requests int
	// Rate is the offered load in requests per second; it must be
	// positive.
	Rate float64
	// Poisson draws exponential inter-arrival gaps (a Poisson process at
	// Rate) instead of a fixed interval.
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

// readScript reads a script: a JSON array of request paths.
func readScript(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var paths []string
	if err := json.Unmarshal(raw, &paths); err != nil {
		return nil, fmt.Errorf("script %s: %w (want a JSON array of request paths)", path, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("script %s: no request paths", path)
	}
	return paths, nil
}

// listenLoopback serves h on a loopback port and returns its base URL
// and the function that stops it.
func listenLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := NewHTTPServer(h)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// RunScript issues each request path of a script against h over a
// loopback listener and prints one "<status> <compact-json-body>" line
// per request to out: the batch mode of pmserve and pmrouter.
func RunScript(h http.Handler, scriptPath string, out io.Writer) error {
	paths, err := readScript(scriptPath)
	if err != nil {
		return err
	}
	base, stop, err := listenLoopback(h)
	if err != nil {
		return err
	}
	defer stop()
	for _, p := range paths {
		resp, err := http.Get(base + p)
		if err != nil {
			return fmt.Errorf("GET %s: %w", p, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("GET %s: %w", p, err)
		}
		fmt.Fprintf(out, "%d %s\n", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// Loadgen drives the handler over a loopback listener with the scripted
// mix on the configured arrival schedule and returns the per-class SLO
// summary.
func Loadgen(h http.Handler, scriptPath string, opts LoadgenOptions) (SLODoc, error) {
	if !(opts.Rate > 0) {
		return SLODoc{}, fmt.Errorf("loadgen: rate %v requests/s is not positive", opts.Rate)
	}
	paths, err := readScript(scriptPath)
	if err != nil {
		return SLODoc{}, err
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Requests <= 0 {
		opts.Requests = 400
	}
	base, stop, err := listenLoopback(h)
	if err != nil {
		return SLODoc{}, err
	}
	defer stop()

	// Client-side latency histograms, one per query class, in a private
	// registry so loadgen numbers never mix into the server's own metrics.
	reg := telemetry.NewRegistry()
	var failures atomic.Int64
	doc := SLODoc{Classes: map[string]SLOClass{}, OpenLoop: runOpenLoop(base, paths, opts, reg, &failures)}
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

// doRequest issues one request and records its latency from t0, the
// scheduled arrival. Failures and admission rejections (503 +
// Retry-After: part of load behavior, but their latency is the rejection
// fast path, not service) stay out of the class histograms.
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

// runOpenLoop generates the arrival schedule on one goroutine and drains
// it with opts.Clients workers. The arrivals channel is buffered for the
// whole run so a stalled server never pushes back on the generator —
// requests keep "arriving" and their queueing shows up in the measured
// latency, because each worker stamps latency from the scheduled arrival
// it dequeues, not from when it got around to sending.
func runOpenLoop(base string, paths []string, opts LoadgenOptions,
	reg *telemetry.Registry, failures *atomic.Int64) OpenLoopStats {
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
	st := OpenLoopStats{TargetRPS: opts.Rate, Poisson: opts.Poisson}
	if offered := lastSched.Sub(start).Seconds(); offered > 0 {
		st.OfferedRPS = float64(opts.Requests) / offered
	}
	if elapsed > 0 {
		st.ServedRPS = float64(served.Load()) / elapsed
	}
	return st
}

// writeSLO writes the document as stable, indented JSON (classes sorted).
func writeSLO(w io.Writer, doc SLODoc) error {
	// json.Marshal sorts map keys, so the output is already stable.
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// summarizeSLO renders a one-line-per-class summary for stderr.
func summarizeSLO(doc SLODoc) string {
	classes := make([]string, 0, len(doc.Classes))
	for c := range doc.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var sb strings.Builder
	ol := doc.OpenLoop
	shape := "fixed-rate"
	if ol.Poisson {
		shape = "poisson"
	}
	fmt.Fprintf(&sb, "  open loop (%s): target=%.0frps offered=%.0frps served=%.0frps\n",
		shape, ol.TargetRPS, ol.OfferedRPS, ol.ServedRPS)
	for _, c := range classes {
		sc := doc.Classes[c]
		fmt.Fprintf(&sb, "  %-10s n=%-6d p50=%.0fus p95=%.0fus p99=%.0fus\n",
			c, sc.Count, sc.Quantiles["p50"]/1e3, sc.Quantiles["p95"]/1e3, sc.Quantiles["p99"]/1e3)
	}
	return sb.String()
}

// LoadFlags is the -loadgen flag family pmserve and pmrouter share.
type LoadFlags struct {
	Enabled bool
	Options LoadgenOptions
	SLOOut  string
}

// AddLoadFlags declares the -loadgen flag family on fs.
func AddLoadFlags(fs *flag.FlagSet) *LoadFlags {
	f := &LoadFlags{}
	fs.BoolVar(&f.Enabled, "loadgen", false, "open-loop load generation over the -script query mix at -loadgen-rate; writes an SLO JSON summary and exits")
	fs.IntVar(&f.Options.Clients, "loadgen-clients", 4, "in-flight request bound for -loadgen")
	fs.IntVar(&f.Options.Requests, "loadgen-requests", 400, "total requests for -loadgen")
	fs.Float64Var(&f.Options.Rate, "loadgen-rate", 0, "requests/second -loadgen offers on a fixed schedule regardless of service rate (required, > 0); latency counts queueing from the scheduled arrival")
	fs.BoolVar(&f.Options.Poisson, "loadgen-poisson", false, "draw -loadgen inter-arrival gaps from a Poisson process at -loadgen-rate instead of a fixed interval")
	fs.Int64Var(&f.Options.Seed, "loadgen-seed", 1, "seed for the -loadgen-poisson arrival schedule")
	fs.StringVar(&f.SLOOut, "slo-out", "", "write the -loadgen SLO JSON to this file (default stdout)")
	return f
}

// Check reports a -loadgen usage error: no -script to replay, or no
// positive -loadgen-rate.
func (f *LoadFlags) Check(script string) error {
	switch {
	case !f.Enabled:
		return nil
	case script == "":
		return errors.New("-loadgen needs -script (the query mix to replay)")
	case !(f.Options.Rate > 0):
		return errors.New("-loadgen needs -loadgen-rate > 0 (requests per second)")
	}
	return nil
}

// Run drives h with the scripted mix, prints the summary to log, and
// writes the SLO JSON to -slo-out, or to stdout when it is unset.
func (f *LoadFlags) Run(h http.Handler, script string, stdout, log io.Writer) error {
	doc, err := Loadgen(h, script, f.Options)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "loadgen complete (%d clients):\n%s", f.Options.Clients, summarizeSLO(doc))
	if f.SLOOut == "" {
		return writeSLO(stdout, doc)
	}
	out, err := os.Create(f.SLOOut)
	if err != nil {
		return err
	}
	err = writeSLO(out, doc)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
