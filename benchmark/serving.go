package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/router"
	"pmoctree/internal/serve"
	"pmoctree/internal/telemetry"
)

// stack is one serving tier brought up over loopback: a serve.Handler over
// one tree, or a router.Handler over two materialized shard servers.
type stack struct {
	url     string
	cat     *serve.Catalog
	sched   *serve.Scheduler
	handler http.Handler
	closers []func()

	// Routed stacks only.
	router     *router.Router
	shardBytes int // device bytes of the shard arenas, summed
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// listen serves h on a free loopback port; stop closes the listener and
// every connection and returns once the accept loop has ended.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed once stop runs
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close() // a second close, or a connection error, changes nothing here
		<-done
	}, nil
}

// serveTree brings up catalog, scheduler, handler and listener over t.
// Nothing is published yet: the caller publishes on the writer's thread.
// reg and sink are nil in the untraced passes.
func serveTree(t *core.Tree, keep int, reg *telemetry.Registry, sink *telemetry.TraceSink) (*stack, error) {
	s := &stack{}
	s.cat = serve.NewCatalog(t, serve.Config{Keep: keep, Registry: reg})
	s.closers = append(s.closers, s.cat.Close)
	s.sched = serve.NewScheduler(serve.SchedulerConfig{Registry: reg})
	s.closers = append(s.closers, s.sched.Close)
	h := serve.NewHandler(s.cat, s.sched)
	if sink != nil {
		h.SetTraceSink(sink)
	}
	s.handler = h
	url, stop, err := listen(h)
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = url
	s.closers = append(s.closers, stop)
	return s, nil
}

func (s *stack) publish() error {
	snap, err := s.cat.Publish()
	if err != nil {
		return err
	}
	snap.Close()
	return nil
}

// newShardClient is the HTTP client a router backend reaches its shard with.
func newShardClient() (*http.Client, func()) {
	tp := &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	return &http.Client{Transport: tp}, tp.CloseIdleConnections
}

// serveRouted materializes src's committed version into two span shards,
// restores each arena behind its own serve.Handler, and fronts them with a
// router.Handler over HTTP backends — the deployment pmserve -materialize
// and pmrouter -shards build, inside one process. local selects in-process
// backends instead (one rung of the query ladder).
func serveRouted(src *core.Tree, keep int, pool *parallel.Pool, reg *telemetry.Registry, tr *tracer, local bool) (*stack, error) {
	s := &stack{}
	spans := router.UniformSpans(2)
	cfg := router.Config{AttemptTimeout: 30 * time.Second, Registry: reg}
	for i, span := range spans {
		dev := nvbm.New(nvbm.NVBM, 0)
		sp := tr.start("router.materialize")
		mt, _, err := router.MaterializeShard(src, span, core.Config{NVBMDevice: dev}, pool)
		sp.end()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("materialize shard %d: %w", i, err)
		}
		mt.Close()
		sp = tr.start("core.restore")
		rt, err := core.Restore(core.Config{NVBMDevice: dev, VerifyRestore: true})
		sp.end()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("restore shard %d: %w", i, err)
		}
		s.closers = append(s.closers, rt.Close)
		sh, err := serveTree(rt, keep, reg, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, sh.close)
		sp = tr.start("serve.publish")
		err = sh.publish()
		sp.end()
		if err != nil {
			s.close()
			return nil, err
		}
		s.shardBytes += dev.Size()
		name := fmt.Sprintf("shard%d", i)
		if local {
			cfg.Shards = append(cfg.Shards, router.ShardConfig{Primary: router.NewLocalBackend(name, sh.cat, sh.sched)})
		} else {
			client, closeIdle := newShardClient()
			s.closers = append(s.closers, closeIdle)
			cfg.Shards = append(cfg.Shards, router.ShardConfig{Primary: router.NewHTTPBackend(name, sh.url, client)})
		}
	}
	r, err := router.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = r
	s.closers = append(s.closers, r.Close)
	s.handler = router.NewHandler(r)
	url, stop, err := listen(s.handler)
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = url
	s.closers = append(s.closers, stop)
	return s, nil
}
