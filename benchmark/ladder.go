package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"pmoctree/internal/bulk"
	"pmoctree/internal/core"
	"pmoctree/internal/fluid"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/router"
	"pmoctree/internal/serve"
	"pmoctree/internal/solver"
	"pmoctree/internal/telemetry"
)

// The query ladder replays the same queries at each depth of the serving
// path, one client, nothing else running: a rung's overhead is the median
// over queries of its time minus the time of the rung below.
const (
	rungSnapshot    = iota // direct Snapshot calls
	rungSched              // through Scheduler.Do
	rungHandler            // Handler.ServeHTTP on a recorder
	rungHTTP               // loopback HTTP
	rungRouterLocal        // Router over LocalBackends
	rungRouterHTTP         // Router over HTTPBackends
	rungFrontHTTP          // loopback HTTP to the router's handler
	rungCount
)

type ladderResult struct {
	indexBuildNs int64
	rung         [rungCount][]int64 // per-query ns; nil where the workload has no such rung
	hits         []int              // region hit counts
	modeledNs    uint64             // NVBM modeled time charged by the snapshot rung
	serve        telemetry.Snapshot
	router       telemetry.Snapshot
	fanout       float64

	bulkConstructNs, bulkBalanceNs int64
	allocBytesPerLeaf              float64
	allocsPerLeaf                  float64

	applyNsPerCell float64
	speedupW2      float64
	speedupNote    string
}

// ladder measures the rungs on a fresh tree built from the initial mesh, so
// every rung of every workload answers from the same content.
func (r *runner) ladder(tr *tracer) (*ladderResult, error) {
	sp, in := r.sp, r.in
	lr := &ladderResult{}
	tr.setGroup("ladder")
	var pool *parallel.Pool
	if sp.workers > 1 {
		pool = parallel.New(sp.workers)
	}

	// bulk alone, then the whole ConstructFromCodes with its allocations.
	s := tr.start("bulk.construct")
	t := time.Now()
	if _, err := bulk.Construct(in.initial.codes, bulk.Options{Pool: pool}); err != nil {
		return nil, err
	}
	lr.bulkConstructNs = int64(time.Since(t))
	s.end()
	s = tr.start("bulk.balance")
	t = time.Now()
	if _, err := bulk.Balance(in.initial.codes, pool); err != nil {
		return nil, err
	}
	lr.bulkBalanceNs = int64(time.Since(t))
	s.end()

	nv := nvbm.New(nvbm.NVBM, 0)
	tree := core.Create(core.Config{NVBMDevice: nv, DRAMBudgetOctants: sp.c0})
	defer tree.Close()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := tree.ConstructFromCodes(in.initial.codes, in.initial.data, pool, false); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	leaves := float64(len(in.initial.codes))
	lr.allocBytesPerLeaf = float64(m1.TotalAlloc-m0.TotalAlloc) / leaves
	lr.allocsPerLeaf = float64(m1.Mallocs-m0.Mallocs) / leaves
	tree.Persist()

	reg := telemetry.NewRegistry()
	st, err := serveTree(tree, sp.keep, reg, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if err := st.publish(); err != nil {
		return nil, err
	}
	snap, err := st.cat.AcquireLatest()
	if err != nil {
		return nil, err
	}
	defer snap.Close()

	qs := in.queries[:sp.ladderQueries]
	first := in.queries[r.points[0]]
	s = tr.start("serve.index_build")
	t = time.Now()
	_, err = snap.Point(first.p[0], first.p[1], first.p[2])
	lr.indexBuildNs = int64(time.Since(t))
	s.end()
	if err != nil {
		return nil, err
	}

	direct := func(q query, sn *serve.Snapshot) (hits int, err error) {
		switch q.class {
		case classPoint:
			_, err = sn.Point(q.p[0], q.p[1], q.p[2])
		case classRegion:
			var h []serve.LeafHit
			h, err = sn.Region(q.box)
			hits = len(h)
		default:
			_, err = sn.Aggregate(q.field, q.box)
		}
		return hits, err
	}
	replay := func(rung int, name string, one func(i int, q query) error) error {
		s := tr.start("ladder." + name)
		defer s.end()
		lr.rung[rung] = make([]int64, len(qs))
		for i, q := range qs {
			t := time.Now()
			if err := one(i, q); err != nil {
				return fmt.Errorf("ladder %s, query %d: %w", name, i, err)
			}
			lr.rung[rung][i] = int64(time.Since(t))
		}
		return nil
	}

	lr.hits = make([]int, len(qs))
	nv0 := nv.Stats()
	if err := replay(rungSnapshot, "snapshot", func(i int, q query) error {
		h, err := direct(q, snap)
		lr.hits[i] = h
		return err
	}); err != nil {
		return nil, err
	}
	lr.modeledNs = nv.Stats().Sub(nv0).ModeledNs
	if err := replay(rungSched, "sched", func(_ int, q query) error {
		_, err := st.sched.Do(classNames[q.class], func() (any, error) {
			_, err := direct(q, snap)
			return nil, err
		})
		return err
	}); err != nil {
		return nil, err
	}
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i] = httptest.NewRequest(http.MethodGet, q.path(0), nil)
	}
	if err := replay(rungHandler, "handler", func(i int, _ query) error {
		rec := httptest.NewRecorder()
		st.handler.ServeHTTP(rec, reqs[i])
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	one := newLoad(1)
	defer one.close()
	var buf bytes.Buffer
	overHTTP := func(base string) func(int, query) error {
		return func(_ int, q query) error {
			if rep := one.get(base+q.path(0), &buf); !rep.ok {
				return fmt.Errorf("%s", rep.note)
			}
			return nil
		}
	}
	if err := replay(rungHTTP, "http", overHTTP(st.url)); err != nil {
		return nil, err
	}
	lr.serve = reg.Snapshot()

	if sp.routed {
		rreg := telemetry.NewRegistry()
		ctx := context.Background()
		routed := func(rt *router.Router, fan *int) func(int, query) error {
			return func(_ int, q query) (err error) {
				var env router.Envelope
				switch q.class {
				case classPoint:
					var a router.PointAnswer
					a, err = rt.Point(ctx, router.Latest, q.p[0], q.p[1], q.p[2])
					env = a.Envelope
				case classRegion:
					var a router.RegionAnswer
					a, err = rt.Region(ctx, router.Latest, q.box)
					env = a.Envelope
				default:
					var a router.AggAnswer
					a, err = rt.Aggregate(ctx, router.Latest, q.field, q.box)
					env = a.Envelope
				}
				*fan += len(env.ServedBy)
				if err == nil && env.Degraded {
					err = fmt.Errorf("degraded: %v", env.Reasons)
				}
				return err
			}
		}
		local, err := serveRouted(tree, sp.keep, pool, rreg, tr, true)
		if err != nil {
			return nil, err
		}
		fan := 0
		err = replay(rungRouterLocal, "router_local", routed(local.router, &fan))
		local.close()
		if err != nil {
			return nil, err
		}
		lr.fanout = float64(fan) / float64(len(qs))
		remote, err := serveRouted(tree, sp.keep, pool, rreg, tr, false)
		if err != nil {
			return nil, err
		}
		defer remote.close()
		if err := replay(rungRouterHTTP, "router_http", routed(remote.router, &fan)); err != nil {
			return nil, err
		}
		if err := replay(rungFrontHTTP, "front_http", overHTTP(remote.url)); err != nil {
			return nil, err
		}
		lr.router = rreg.Snapshot()
	}

	if sp.kind == kindFlow {
		if err := r.flowLadder(lr, tree, tr); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// flowLadder times the solver's operator alone and the same fluid step at
// one worker and at two.
func (r *runner) flowLadder(lr *ladderResult, tree *core.Tree, tr *tracer) error {
	sys, err := solver.Build(tree.LeafCodes())
	if err != nil {
		return err
	}
	x, y := make([]float64, sys.N()), make([]float64, sys.N())
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	best := int64(math.MaxInt64)
	s := tr.start("solver.apply")
	for k := 0; k < 20; k++ {
		t := time.Now()
		sys.Apply(x, y)
		if d := int64(time.Since(t)); d < best {
			best = d
		}
	}
	s.end()
	lr.applyNsPerCell = float64(best) / float64(sys.N())

	if r.nproc < 2 {
		lr.speedupNote = "skipped: nproc < 2"
		return nil
	}
	stepAt := func(workers int) (int64, error) {
		st := fluid.NewState(sys)
		st.SetPool(parallel.New(workers))
		for i := 0; i < sys.N(); i++ {
			if cx, cy, cz := sys.Center(i); r.in.liquid(cx, cy, cz) {
				st.VOF[i] = 1
			}
		}
		best := int64(math.MaxInt64)
		for k := 0; k < 3; k++ {
			t := time.Now()
			if _, err := st.Step(math.Min(st.CFL()*0.5, 5e-3)); err != nil {
				return 0, err
			}
			if d := int64(time.Since(t)); d < best {
				best = d
			}
		}
		return best, nil
	}
	s = tr.start("parallel.speedup")
	defer s.end()
	w1, err := stepAt(1)
	if err != nil {
		return err
	}
	w2, err := stepAt(2)
	if err != nil {
		return err
	}
	lr.speedupW2 = float64(w1) / float64(w2)
	return nil
}
