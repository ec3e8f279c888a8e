// Command pmrouter is the fault-tolerant query front tier: it maps
// Z-order key spans onto shard backends (pmserve processes or in-process
// catalogs), scatter-gathers region and aggregate queries across the
// spans a request touches, and hides shard failures behind health-gated
// retries, hedged reads, circuit breakers, and a two-level fallback
// (recovery replica, then healthy-peer takeover, then a stale committed
// version served with explicit degraded markers).
//
// Modes:
//
//	pmrouter -shards http://h1:8077,http://h2:8077   front remote pmserve shards
//	  [-replicas http://r1:8077,]                    per-shard replica endpoints
//	                                                 (aligned by index, blank = none)
//	pmrouter -image run.img -inproc 3                single-process demo: route
//	                                                 across N in-process shards
//	                                                 over one restored image
//	pmrouter -images s0.img,s1.img                   route across in-process
//	                                                 shards restored from
//	                                                 materialized per-shard
//	                                                 arenas (pmserve
//	                                                 -materialize output)
//	pmrouter ... -script queries.json                batch mode: print one
//	                                                 "<status> <body>" line per
//	                                                 query, exit (CI smoke)
//	pmrouter ... -loadgen -script mix.json           closed-loop load over the
//	                                                 routed surface; emits the
//	                                                 SLO JSON CI gates on
//	pmrouter -chaos -seed 7                          run the router chaos soak
//	                                                 (kill/restart shards under
//	                                                 query load), print the
//	                                                 report, exit non-zero on
//	                                                 any wrong answer
//
// The routed HTTP surface mirrors pmserve's (/v1/point, /v1/region,
// /v1/agg, /v1/versions) with a provenance envelope on every answer
// (requested_version, served_version, degraded, served_by) plus
// /v1/shards for per-shard health, breaker, and span state. /metrics,
// /healthz, and /readyz stay outside the drainer so the balancer can
// watch readiness flip during the SIGTERM drain.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmoctree"
	"pmoctree/internal/fault"
	"pmoctree/internal/router"
	"pmoctree/internal/serve"
	"pmoctree/internal/telemetry"
)

func main() {
	var (
		shardList   = flag.String("shards", "", "comma-separated shard base URLs (pmserve endpoints, ascending span order)")
		replicaList = flag.String("replicas", "", "comma-separated replica base URLs aligned with -shards (blank entry = no replica)")
		image       = flag.String("image", "", "NVBM device image for -inproc mode")
		inproc      = flag.Int("inproc", 0, "run this many in-process shards over -image instead of -shards")
		images      = flag.String("images", "", "comma-separated per-shard NVBM images (pmserve -materialize output, ascending span order): each in-process shard restores only its own arena and refuses to answer outside its span, so a peer takeover of a dead shard's span fails and queries touching that span are unavailable")
		addr        = flag.String("addr", "localhost:8078", "listen address for serve mode")
		keep        = flag.Int("keep", 4, "committed versions to keep pinned per in-process shard")

		retries    = flag.Int("retries", 2, "max retries per shard attempt")
		hedge      = flag.Duration("hedge", 0, "hedged-read delay against a shard's replica (0 = off)")
		attemptTO  = flag.Duration("attempt-timeout", 2*time.Second, "per-attempt timeout")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "background shard health-probe interval (0 = off)")
		drainFor   = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout on SIGTERM/SIGINT")
		seed       = flag.Int64("seed", 1, "seed for retry jitter (and the -chaos schedule)")

		script     = flag.String("script", "", "batch mode: JSON array of request paths to run and print")
		loadgen    = flag.Bool("loadgen", false, "closed-loop load generation over -script; writes an SLO JSON summary and exits")
		lgClients  = flag.Int("loadgen-clients", 4, "concurrent clients for -loadgen (closed-loop: offered load; open-loop: in-flight bound)")
		lgRequests = flag.Int("loadgen-requests", 400, "total requests for -loadgen")
		lgRate     = flag.Float64("loadgen-rate", 0, "open-loop -loadgen: offer this many requests/second on a fixed schedule regardless of service rate (0 = closed loop); latency counts queueing from the scheduled arrival")
		lgPoisson  = flag.Bool("loadgen-poisson", false, "draw open-loop inter-arrival gaps from a Poisson process at -loadgen-rate instead of a fixed interval")
		sloOut     = flag.String("slo-out", "", "write the -loadgen SLO JSON to this file (default stdout)")

		chaos       = flag.Bool("chaos", false, "run the router chaos soak and exit")
		chaosRounds = flag.Int("chaos-rounds", 16, "soak rounds for -chaos")
		chaosShards = flag.Int("chaos-shards", 3, "shard count for -chaos")

		flightDump = flag.String("flightdump", "", "write the flight-recorder ring as JSONL to this file on exit and on SIGQUIT")
	)
	flag.Parse()

	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(4096)
	dumpFlight := func() {}
	if *flightDump != "" {
		stop := flight.DumpOnSignal(*flightDump, syscall.SIGQUIT)
		dumpFlight = func() {
			stop()
			flight.DumpFile(*flightDump)
		}
	}

	if *chaos {
		rep, err := fault.RunRouterChaos(fault.RouterChaosConfig{
			Seed:     *seed,
			Shards:   *chaosShards,
			Rounds:   *chaosRounds,
			Registry: reg,
			Recorder: flight,
		})
		fmt.Print(rep.String())
		dumpFlight()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmrouter: chaos soak FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}
	defer dumpFlight()

	shards, cleanup, err := buildShards(*shardList, *replicaList, *image, *images, *inproc, *keep, reg, flight)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmrouter:", err)
		os.Exit(2)
	}
	defer cleanup()

	health := telemetry.NewHealth()
	r, err := router.New(router.Config{
		Shards:         shards,
		MaxRetries:     *retries,
		HedgeDelay:     *hedge,
		AttemptTimeout: *attemptTO,
		ProbeInterval:  *probeEvery,
		Seed:           *seed,
		Registry:       reg,
		Recorder:       flight,
		Process:        health,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmrouter:", err)
		os.Exit(2)
	}
	defer r.Close()
	r.Probe(context.Background())
	health.SetReady(true)

	handler := router.NewHandler(r)
	drainer := serve.NewDrainer(handler, health, time.Second, reg)
	mux := http.NewServeMux()
	mux.Handle("/", drainer)
	mux.Handle("/metrics", telemetry.MetricsHandler(reg))
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot())
	})
	mux.Handle("/healthz", health.HealthzHandler())
	mux.Handle("/readyz", health.ReadyzHandler())

	if *loadgen {
		if *script == "" {
			fmt.Fprintln(os.Stderr, "pmrouter: -loadgen needs -script (the query mix to replay)")
			os.Exit(2)
		}
		doc, err := serve.RunLoadgenOpts(mux, *script, serve.LoadgenOptions{
			Clients:  *lgClients,
			Requests: *lgRequests,
			Rate:     *lgRate,
			Poisson:  *lgPoisson,
			Seed:     *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmrouter: loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pmrouter: loadgen complete (%d clients):\n%s", *lgClients, serve.SummarizeSLO(doc))
		out := io.Writer(os.Stdout)
		if *sloOut != "" {
			f, err := os.Create(*sloOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmrouter: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := serve.WriteSLO(out, doc); err != nil {
			fmt.Fprintf(os.Stderr, "pmrouter: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *script != "" {
		if err := runScript(mux, *script); err != nil {
			fmt.Fprintf(os.Stderr, "pmrouter: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrouter: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pmrouter: routing %d shard(s) on http://%s (try /v1/shards)\n",
		len(shards), ln.Addr())
	srv := serve.NewHTTPServer(mux)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		<-sig
		// Graceful shutdown: readiness flips first, new queries get 503 +
		// Retry-After, in-flight scatters drain bounded by -drain.
		fmt.Fprintf(os.Stderr, "pmrouter: draining (up to %v)\n", *drainFor)
		if !drainer.Shutdown(*drainFor) {
			fmt.Fprintln(os.Stderr, "pmrouter: drain timeout expired with queries in flight")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "pmrouter: %v\n", err)
		os.Exit(1)
	}
}

// buildShards assembles the backend set: HTTP backends over -shards (with
// optional aligned -replicas), -inproc local shards sharing one restored
// image (every arena holds the full copy; the router's span map partitions
// responsibility), or -images local shards each restoring its own
// materialized per-shard arena (pmserve -materialize output) so shard i's
// process footprint scales with its span, not the whole mesh.
func buildShards(shardList, replicaList, image, images string, inproc, keep int,
	reg *telemetry.Registry, flight *telemetry.FlightRecorder) ([]router.ShardConfig, func(), error) {
	cleanup := func() {}
	modes := 0
	for _, on := range []bool{shardList != "", inproc > 0, images != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return nil, cleanup, fmt.Errorf("-shards, -inproc, and -images are mutually exclusive")
	}

	if images != "" {
		paths := strings.Split(images, ",")
		var closers []func()
		cleanup = func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}
		out := make([]router.ShardConfig, len(paths))
		for i, p := range paths {
			p = strings.TrimSpace(p)
			if p == "" {
				return nil, cleanup, fmt.Errorf("-images entry %d is empty", i)
			}
			dev, err := pmoctree.OpenDeviceFile(p)
			if err != nil {
				return nil, cleanup, fmt.Errorf("shard %d image: %w", i, err)
			}
			tree, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: dev, VerifyRestore: true})
			if err != nil {
				return nil, cleanup, fmt.Errorf("restoring shard %d from %s: %w", i, p, err)
			}
			cat := serve.NewCatalog(tree, serve.Config{Keep: keep, Registry: reg})
			sched := serve.NewScheduler(serve.SchedulerConfig{Registry: reg, Recorder: flight})
			closers = append(closers, func() {
				sched.Close()
				cat.Close()
			})
			s, err := cat.Publish()
			if err != nil {
				return nil, cleanup, fmt.Errorf("publishing shard %d: %w", i, err)
			}
			s.Close()
			out[i].Primary = router.NewLocalBackend(fmt.Sprintf("shard%d", i), cat, sched)
		}
		return out, cleanup, nil
	}

	if shardList != "" {
		urls := strings.Split(shardList, ",")
		var replicas []string
		if replicaList != "" {
			replicas = strings.Split(replicaList, ",")
			if len(replicas) != len(urls) {
				return nil, cleanup, fmt.Errorf("-replicas has %d entries, -shards has %d (use blank entries for shards without replicas)", len(replicas), len(urls))
			}
		}
		out := make([]router.ShardConfig, len(urls))
		for i, u := range urls {
			u = strings.TrimSpace(u)
			if u == "" {
				return nil, cleanup, fmt.Errorf("-shards entry %d is empty", i)
			}
			out[i].Primary = router.NewHTTPBackend(fmt.Sprintf("shard%d", i), u, nil)
			if replicas != nil {
				if ru := strings.TrimSpace(replicas[i]); ru != "" {
					out[i].Replica = router.NewHTTPBackend(fmt.Sprintf("shard%d-replica", i), ru, nil)
				}
			}
		}
		return out, cleanup, nil
	}

	if inproc <= 0 {
		return nil, cleanup, fmt.Errorf("need -shards url,... or -image img -inproc N")
	}
	if image == "" {
		return nil, cleanup, fmt.Errorf("-inproc needs -image (produce one with: droplet -image run.img)")
	}
	dev, err := pmoctree.OpenDeviceFile(image)
	if err != nil {
		return nil, cleanup, fmt.Errorf("opening image: %w", err)
	}
	tree, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: dev, VerifyRestore: true})
	if err != nil {
		return nil, cleanup, fmt.Errorf("restoring tree: %w", err)
	}
	cat := serve.NewCatalog(tree, serve.Config{Keep: keep, Registry: reg})
	sched := serve.NewScheduler(serve.SchedulerConfig{Registry: reg, Recorder: flight})
	cleanup = func() {
		sched.Close()
		cat.Close()
	}
	// Publish ring history oldest-first so the newest commit lands last.
	vs := tree.RetainedVersions()
	for i := len(vs) - 1; i >= 0; i-- {
		if s, err := cat.PublishVersion(vs[i].Root, vs[i].Step); err == nil {
			s.Close()
		}
	}
	s, err := cat.Publish()
	if err != nil {
		cleanup()
		return nil, func() {}, fmt.Errorf("publishing committed version: %w", err)
	}
	s.Close()
	out := make([]router.ShardConfig, inproc)
	for i := range out {
		out[i].Primary = router.NewLocalBackend(fmt.Sprintf("shard%d", i), cat, sched)
	}
	return out, cleanup, nil
}

// runScript executes each request path from a JSON string array against
// the handler over a loopback listener and prints one
// "<status> <compact-json-body>" line per request.
func runScript(h http.Handler, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var paths []string
	if err := json.Unmarshal(raw, &paths); err != nil {
		return fmt.Errorf("script %s: %w (want a JSON array of request paths)", path, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(h)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
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
		fmt.Printf("%d %s\n", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}
