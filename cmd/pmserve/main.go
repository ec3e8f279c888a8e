// Command pmserve is the MVCC snapshot query server: it restores a
// PM-octree from a persisted NVBM device image (cmd/droplet -image),
// pins committed versions into an internal/serve catalog, and answers
// point lookups, region queries, and field aggregations over HTTP —
// optionally while a simulation writer keeps committing new steps in the
// background.
//
// Modes:
//
//	pmserve -image run.img                       serve until interrupted
//	pmserve -image run.img -simulate 10          keep simulating while serving
//	pmserve -image run.img -script queries.json  batch mode: run scripted
//	                                             queries, print one
//	                                             "<status> <body>" line per
//	                                             query, exit (CI smoke)
//	pmserve -image run.img -materialize 1/4 \
//	        -out s1.img                          carve shard 1-of-4's Z-order
//	                                             span into a small per-shard
//	                                             arena (serve with
//	                                             pmrouter -images)
//
// With -history (the default), versions retained in the fallback ring
// (cmd/droplet -retain) are published alongside the newest commit, so
// clients can query several pinned steps of history.
//
// Observability: /metrics serves the telemetry registry in Prometheus
// text format, /metrics.json as JSON; /healthz and /readyz report
// liveness and readiness; every query carries an X-Trace-Id whose
// per-phase breakdown is retrievable from /v1/trace; -flightdump and
// -tracedump write the flight-recorder ring (JSONL) and the retained
// request traces (Chrome trace JSON) on exit, and SIGQUIT dumps the
// flight ring from a live process. -loadgen offers the scripted query mix
// open-loop at -loadgen-rate and emits the per-class latency SLO
// document.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmoctree"
	"pmoctree/internal/bulk"
	"pmoctree/internal/router"
	"pmoctree/internal/serve"
	"pmoctree/internal/telemetry"
)

func main() {
	var (
		image    = flag.String("image", "", "NVBM device image to restore and serve (required)")
		addr     = flag.String("addr", "localhost:8077", "listen address for serve mode")
		keep     = flag.Int("keep", 4, "committed versions to keep pinned in the catalog")
		history  = flag.Bool("history", true, "also publish versions retained in the fallback ring")
		workers  = flag.Int("workers", 0, "scheduler worker goroutines (0 = default)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = default); full queue answers 503 + Retry-After")
		batch    = flag.Int("batch", 0, "requests drained per worker wakeup (0 = default)")
		drainFor = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout for in-flight queries on SIGTERM/SIGINT")
		simulate = flag.Int("simulate", 0, "continue the droplet workload for this many steps, publishing every commit")
		maxLevel = flag.Int("maxlevel", 5, "maximum refinement level for -simulate")
		stepTime = flag.Duration("steptime", 500*time.Millisecond, "pause between -simulate steps in serve mode")
		script   = flag.String("script", "", "batch mode: JSON array of request paths to run and print")

		debugAddr  = flag.String("debug", "", "serve expvar/metrics/pprof on `addr` (e.g. localhost:6060)")
		traceCap   = flag.Int("traces", 256, "request traces retained for /v1/trace")
		traceDump  = flag.String("tracedump", "", "write retained request traces as Chrome trace JSON to this file on exit")
		flightDump = flag.String("flightdump", "", "write the flight-recorder ring as JSONL to this file on exit and on SIGQUIT")

		materialize = flag.String("materialize", "", "materialize shard `i/N`: bulk-construct a per-shard arena holding only shard i's Z-order key span (the rest of the domain tiled by a zero-payload cover), write it to -out, print the footprint, and exit; serve the result with pmrouter -images")
		matOut      = flag.String("out", "", "per-shard NVBM image file to write for -materialize")
	)
	load := serve.AddLoadFlags(flag.CommandLine)
	flag.Parse()
	if *image == "" {
		fmt.Fprintln(os.Stderr, "pmserve: -image is required (produce one with: droplet -image run.img)")
		os.Exit(2)
	}
	if err := load.Check(*script); err != nil {
		fmt.Fprintln(os.Stderr, "pmserve:", err)
		os.Exit(2)
	}

	dev, err := pmoctree.OpenDeviceFile(*image)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmserve: opening image: %v\n", err)
		os.Exit(1)
	}
	tree, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: dev, VerifyRestore: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmserve: restoring tree: %v\n", err)
		os.Exit(1)
	}

	if *materialize != "" {
		os.Exit(runMaterialize(tree, dev, *materialize, *matOut))
	}

	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(4096)
	tree.SetFlightRecorder(flight)
	if *flightDump != "" {
		defer flight.DumpFile(*flightDump)
		defer flight.DumpOnSignal(*flightDump, syscall.SIGQUIT)()
	}
	cat := serve.NewCatalog(tree, serve.Config{Keep: *keep, Registry: reg})
	sched := serve.NewScheduler(serve.SchedulerConfig{
		Workers:    *workers,
		QueueDepth: *queue,
		BatchSize:  *batch,
		Registry:   reg,
		Recorder:   flight,
	})
	defer sched.Close()
	defer cat.Close()

	// Publish ring history oldest-first so the newest commit lands last.
	if *history {
		vs := tree.RetainedVersions()
		for i := len(vs) - 1; i >= 0; i-- {
			s, err := cat.PublishVersion(vs[i].Root, vs[i].Step)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmserve: ring version step %d: %v\n", vs[i].Step, err)
				continue
			}
			s.Close()
		}
	}
	s, err := cat.Publish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmserve: publishing committed version: %v\n", err)
		os.Exit(1)
	}
	s.Close()

	handler := serve.NewHandler(cat, sched)
	traces := telemetry.NewTraceSink(*traceCap)
	handler.SetTraceSink(traces)
	if *traceDump != "" {
		defer func() {
			if out, err := os.Create(*traceDump); err == nil {
				_ = traces.WriteChromeTrace(out)
				out.Close()
			}
		}()
	}

	health := telemetry.NewHealth()
	health.AddCheck("catalog", func() error {
		if len(cat.Steps()) == 0 {
			return fmt.Errorf("no published versions")
		}
		return nil
	})
	health.SetReady(true)

	// The drainer wraps only the query surface: /metrics, /healthz, and
	// /readyz stay reachable while a drain runs, so the balancer can watch
	// readiness flip before the first refusal.
	drainer := serve.NewDrainer(handler, health, sched.RetryAfter(), reg)
	mux := http.NewServeMux()
	mux.Handle("/", drainer)
	mux.Handle("/metrics", telemetry.MetricsHandler(reg))
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot())
	})
	mux.Handle("/healthz", health.HealthzHandler())
	mux.Handle("/readyz", health.ReadyzHandler())

	if *debugAddr != "" {
		dbg, err := telemetry.StartDebugServer(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmserve: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "pmserve: debug server on http://%s/debug/metrics\n", dbg.Addr())
	}

	if load.Enabled {
		runSimulation(tree, cat, *simulate, *maxLevel, 0)
		if err := load.Run(mux, *script, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "pmserve: loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *script != "" {
		// Batch mode: any -simulate steps run up front so output is
		// deterministic, then the scripted queries replay over loopback.
		runSimulation(tree, cat, *simulate, *maxLevel, 0)
		if err := serve.RunScript(mux, *script, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pmserve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *simulate > 0 {
		go runSimulation(tree, cat, *simulate, *maxLevel, *stepTime)
	}
	go watchSaturation(health, reg, flight)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pmserve: serving %d version(s) of %s on http://%s (try /v1/versions)\n",
		len(cat.Steps()), *image, ln.Addr())
	srv := serve.NewHTTPServer(mux)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		<-sig
		// Graceful shutdown: readiness flips first, new queries get 503 +
		// Retry-After, in-flight queries drain bounded by -drain.
		fmt.Fprintf(os.Stderr, "pmserve: draining (up to %v)\n", *drainFor)
		if !drainer.Shutdown(*drainFor) {
			fmt.Fprintln(os.Stderr, "pmserve: drain timeout expired with queries in flight")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "pmserve: %v\n", err)
		os.Exit(1)
	}
}

// runMaterialize builds the per-shard arena for -materialize and writes
// it to out. Exit codes: 0 success, 2 flag misuse (bad spec, missing
// -out), 3 malformed bulk input (the typed validation errors), 1
// everything else.
func runMaterialize(tree *pmoctree.Tree, src *pmoctree.Device, spec, out string) int {
	if out == "" {
		fmt.Fprintln(os.Stderr, "pmserve: -materialize needs -out (the per-shard image file to write)")
		return 2
	}
	kr, err := router.ParseShardSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmserve: %v\n", err)
		return 2
	}
	dev := pmoctree.NewNVBM()
	_, st, err := router.MaterializeShard(tree, kr, pmoctree.Config{NVBMDevice: dev}, nil)
	if err != nil {
		if bulk.IsInputError(err) {
			fmt.Fprintf(os.Stderr, "pmserve: materialize %s: malformed leaf set: %v\n", spec, err)
			return 3
		}
		fmt.Fprintf(os.Stderr, "pmserve: materialize %s: %v\n", spec, err)
		return 1
	}
	if err := dev.PersistFile(out); err != nil {
		fmt.Fprintf(os.Stderr, "pmserve: writing %s: %v\n", out, err)
		return 1
	}
	fmt.Printf("pmserve: materialized shard %s into %s: %d kept leaves + %d fillers (%d octants), %d bytes vs %d full (%.0f%%)\n",
		spec, out, st.Kept, st.Fillers, st.Nodes, dev.Size(), src.Size(),
		100*float64(dev.Size())/float64(src.Size()))
	return 0
}

// watchSaturation polls the scheduler's rejection counter and flips the
// health endpoint into a degraded state while admission is saturating:
// three consecutive intervals with fresh rejections degrade, one clean
// interval clears.
func watchSaturation(health *telemetry.Health, reg *telemetry.Registry, flight *telemetry.FlightRecorder) {
	rejected := reg.Counter("serve.sched.rejected")
	last := rejected.Value()
	streak := 0
	for range time.Tick(time.Second) {
		now := rejected.Value()
		if now > last {
			streak++
			if streak == 3 {
				health.Degrade("saturation", fmt.Sprintf("admission rejections sustained for %ds (total %d)", streak, now))
				flight.Record(telemetry.FlightEvent{Kind: "degraded", Value: now, Detail: "sustained admission saturation"})
			}
		} else {
			if streak >= 3 {
				health.Clear("saturation")
			}
			streak = 0
		}
		last = now
	}
}

// runSimulation continues the droplet workload from the restored
// committed step, publishing every new commit into the catalog. It is
// the single writer; readers keep serving pinned versions concurrently.
func runSimulation(tree *pmoctree.Tree, cat *serve.Catalog, steps, maxLevel int, pause time.Duration) {
	if steps <= 0 {
		return
	}
	start := int(tree.CommittedStep())
	d := pmoctree.NewDroplet(pmoctree.DropletConfig{Steps: start + steps + 10})
	tree.SetFeatures(pmoctree.WorkloadFeature(d, start+1))
	for s := start + 1; s <= start+steps; s++ {
		pmoctree.Step(tree, d, s, uint8(maxLevel))
		tree.SetFeatures(pmoctree.WorkloadFeature(d, s+1))
		tree.Persist()
		if snap, err := cat.Publish(); err == nil {
			snap.Close()
		} else {
			fmt.Fprintf(os.Stderr, "pmserve: publish step %d: %v\n", s, err)
			return
		}
		time.Sleep(pause)
	}
}
