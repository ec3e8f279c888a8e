// Command pmrouter is the fault-tolerant query front tier: it maps
// Z-order key spans onto shard backends (pmserve processes or in-process
// catalogs), scatter-gathers region and aggregate queries across the
// spans a request touches, and hides shard failures behind health-gated
// retries, hedged reads, circuit breakers, and a failover chain: a
// shard's primary, then its recovery replica, then a stale committed
// version served with explicit degraded markers. Every shard serves a
// materialized span arena (pmserve -materialize), which holds only its
// own span, so no shard answers for another.
//
// Modes:
//
//	pmrouter -shards http://h1:8077,http://h2:8077   front remote pmserve shards
//	  [-replicas http://r1:8077,]                    per-shard replica endpoints
//	                                                 (aligned by index, blank = none)
//	pmrouter -image run.img -inproc 3                single-process demo:
//	                                                 materialize N uniform spans
//	                                                 of one restored image in
//	                                                 memory and route across them
//	pmrouter -images s0.img,s1.img                   route across in-process
//	                                                 shards restored from
//	                                                 materialized per-shard
//	                                                 arenas (pmserve
//	                                                 -materialize output)
//	pmrouter ... -script queries.json                batch mode: print one
//	                                                 "<status> <body>" line per
//	                                                 query, exit (CI smoke)
//	pmrouter ... -loadgen -loadgen-rate R \
//	        -script mix.json                         open-loop load over the
//	                                                 routed surface; emits the
//	                                                 SLO JSON
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
//
// Exit codes: 0 success, 1 a failed run (an image that does not restore,
// a failed script or load run, a chaos soak with wrong answers), 2 bad
// usage.
package main

import (
	"context"
	"encoding/json"
	"errors"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is pmrouter on args; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shardList   = fs.String("shards", "", "comma-separated shard base URLs (pmserve endpoints over materialized arenas, ascending span order)")
		replicaList = fs.String("replicas", "", "comma-separated replica base URLs aligned with -shards (blank entry = no replica)")
		image       = fs.String("image", "", "NVBM device image for -inproc mode")
		inproc      = fs.Int("inproc", 0, "materialize this many uniform spans of -image in memory and route across them as in-process shards")
		images      = fs.String("images", "", "comma-separated per-shard NVBM images (pmserve -materialize output, ascending span order): each in-process shard restores only its own arena")
		addr        = fs.String("addr", "localhost:8078", "listen address for serve mode")

		retries    = fs.Int("retries", 2, "max retries per shard attempt")
		hedge      = fs.Duration("hedge", 0, "hedged-read delay against a shard's replica (0 = off)")
		attemptTO  = fs.Duration("attempt-timeout", 2*time.Second, "per-attempt timeout")
		probeEvery = fs.Duration("probe-interval", 2*time.Second, "background shard health-probe interval (0 = off)")
		drainFor   = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout on SIGTERM/SIGINT")
		seed       = fs.Int64("seed", 1, "seed for retry jitter (and the -chaos schedule)")

		script = fs.String("script", "", "batch mode: JSON array of request paths to run and print")

		chaos       = fs.Bool("chaos", false, "run the router chaos soak and exit")
		chaosRounds = fs.Int("chaos-rounds", 16, "soak rounds for -chaos")
		chaosShards = fs.Int("chaos-shards", 3, "shard count for -chaos")

		flightDump = fs.String("flightdump", "", "write the flight-recorder ring as JSONL to this file on exit and on SIGQUIT")
	)
	load := serve.AddLoadFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "pmrouter:", err)
		return code
	}

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
		fmt.Fprint(stdout, rep.String())
		dumpFlight()
		if err != nil {
			return fail(1, fmt.Errorf("chaos soak FAILED: %w", err))
		}
		return 0
	}
	defer dumpFlight()

	if err := checkShardFlags(*shardList, *replicaList, *image, *images, *inproc); err != nil {
		return fail(2, err)
	}
	if err := load.Check(*script); err != nil {
		return fail(2, err)
	}
	shards, cleanup, err := buildShards(*shardList, *replicaList, *image, *images, *inproc, reg, flight)
	defer cleanup()
	if err != nil {
		return fail(1, err)
	}

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
		return fail(2, err)
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

	if load.Enabled {
		if err := load.Run(mux, *script, stdout, stderr); err != nil {
			return fail(1, err)
		}
		return 0
	}

	if *script != "" {
		if err := serve.RunScript(mux, *script, stdout); err != nil {
			return fail(1, err)
		}
		return 0
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stderr, "pmrouter: routing %d shard(s) on http://%s (try /v1/shards)\n",
		len(shards), ln.Addr())
	srv := serve.NewHTTPServer(mux)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		<-sig
		// Graceful shutdown: readiness flips first, new queries get 503 +
		// Retry-After, in-flight scatters drain bounded by -drain.
		fmt.Fprintf(stderr, "pmrouter: draining (up to %v)\n", *drainFor)
		if !drainer.Shutdown(*drainFor) {
			fmt.Fprintln(stderr, "pmrouter: drain timeout expired with queries in flight")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return fail(1, err)
	}
	return 0
}

// checkShardFlags reports a shard-mode usage error: more than one mode,
// -inproc without -image or the reverse, no mode, -replicas without
// -shards.
func checkShardFlags(shardList, replicaList, image, images string, inproc int) error {
	modes := 0
	for _, on := range []bool{shardList != "", inproc > 0, images != ""} {
		if on {
			modes++
		}
	}
	switch {
	case modes > 1:
		return errors.New("-shards, -inproc, and -images are mutually exclusive")
	case inproc > 0 && image == "":
		return errors.New("-inproc needs -image (produce one with: droplet -image run.img)")
	case image != "" && inproc <= 0:
		return errors.New("-image needs -inproc N (the number of spans to materialize)")
	case modes == 0:
		return errors.New("need -shards url,..., -images s0.img,..., or -image img -inproc N")
	case replicaList != "" && shardList == "":
		return errors.New("-replicas needs -shards")
	}
	return nil
}

// buildShards assembles the backend set: HTTP backends over -shards (with
// optional aligned -replicas), or in-process shards each serving one
// materialized span arena — -inproc carves N uniform spans of one
// restored image in memory, -images restores each shard's own arena from
// a pmserve -materialize file. Either way shard i's footprint scales with
// its span, not the whole mesh. The returned cleanup is always callable.
func buildShards(shardList, replicaList, image, images string, inproc int,
	reg *telemetry.Registry, flight *telemetry.FlightRecorder) ([]router.ShardConfig, func(), error) {
	if shardList != "" {
		urls := strings.Split(shardList, ",")
		var replicas []string
		if replicaList != "" {
			replicas = strings.Split(replicaList, ",")
			if len(replicas) != len(urls) {
				return nil, func() {}, fmt.Errorf("-replicas has %d entries, -shards has %d (use blank entries for shards without replicas)", len(replicas), len(urls))
			}
		}
		out := make([]router.ShardConfig, len(urls))
		for i, u := range urls {
			u = strings.TrimSpace(u)
			if u == "" {
				return nil, func() {}, fmt.Errorf("-shards entry %d is empty", i)
			}
			out[i].Primary = router.NewHTTPBackend(fmt.Sprintf("shard%d", i), u, nil)
			if replicas != nil {
				if ru := strings.TrimSpace(replicas[i]); ru != "" {
					out[i].Replica = router.NewHTTPBackend(fmt.Sprintf("shard%d-replica", i), ru, nil)
				}
			}
		}
		return out, func() {}, nil
	}

	var trees []*pmoctree.Tree
	if images != "" {
		for i, p := range strings.Split(images, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				return nil, func() {}, fmt.Errorf("-images entry %d is empty", i)
			}
			tree, err := restoreImage(p)
			if err != nil {
				return nil, func() {}, fmt.Errorf("shard %d: %w", i, err)
			}
			trees = append(trees, tree)
		}
	} else {
		src, err := restoreImage(image)
		if err != nil {
			return nil, func() {}, err
		}
		for i, span := range router.UniformSpans(inproc) {
			tree, _, err := router.MaterializeShard(src, span, pmoctree.Config{NVBMDevice: pmoctree.NewNVBM()}, nil)
			if err != nil {
				return nil, func() {}, fmt.Errorf("materializing shard %d/%d: %w", i, inproc, err)
			}
			trees = append(trees, tree)
		}
	}
	return localShards(trees, reg, flight)
}

// restoreImage restores and verifies the tree persisted in an image file.
func restoreImage(path string) (*pmoctree.Tree, error) {
	dev, err := pmoctree.OpenDeviceFile(path)
	if err != nil {
		return nil, fmt.Errorf("opening image: %w", err)
	}
	tree, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: dev, VerifyRestore: true})
	if err != nil {
		return nil, fmt.Errorf("restoring %s: %w", path, err)
	}
	return tree, nil
}

// localShards serves each materialized shard tree, in span order, from an
// in-process catalog and scheduler that publish its committed version.
func localShards(trees []*pmoctree.Tree, reg *telemetry.Registry, flight *telemetry.FlightRecorder) ([]router.ShardConfig, func(), error) {
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	out := make([]router.ShardConfig, len(trees))
	for i, tree := range trees {
		cat := serve.NewCatalog(tree, serve.Config{Registry: reg})
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
