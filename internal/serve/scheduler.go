package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pmoctree/internal/telemetry"
)

// SaturatedError is the backpressure signal: the admission queue is full
// and the request was rejected without queuing. Clients should retry no
// sooner than RetryAfter.
type SaturatedError struct {
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: admission queue saturated; retry after %v", e.RetryAfter)
}

// ErrSchedulerClosed is returned for requests submitted after Close.
var ErrSchedulerClosed = fmt.Errorf("serve: scheduler is closed")

// SchedulerConfig parameterizes a Scheduler.
type SchedulerConfig struct {
	// Workers is the number of draining goroutines (default 2).
	Workers int
	// QueueDepth bounds the admission queue (default 64). A submit
	// finding the queue full is rejected with SaturatedError.
	QueueDepth int
	// BatchSize is how many queued requests one worker drains per wakeup
	// (default 8); batching amortizes scheduling over bursts.
	BatchSize int
	// RetryAfter is the hint attached to rejections (default 50ms).
	RetryAfter time.Duration
	// Registry, when set, receives serve.* request metrics.
	Registry *telemetry.Registry
	// Recorder, when set, receives a flight event per rejected submit, so
	// a post-mortem shows when admission saturated.
	Recorder *telemetry.FlightRecorder
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	return c
}

type response struct {
	val any
	err error
}

type request struct {
	ctx  context.Context
	kind string
	fn   func() (any, error)
	done chan response
	enq  time.Time
	tc   *telemetry.TraceContext // nil when the request is untraced
}

// Scheduler is the bounded, batching request admission layer. Queries
// themselves are embarrassingly concurrent (immutable snapshots); what
// the scheduler adds is load shaping — a hard cap on in-flight work, a
// queue with a known depth, and an immediate, typed rejection once that
// queue is full.
type Scheduler struct {
	cfg   SchedulerConfig
	queue chan *request
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards queue close vs. submits
	closed bool

	reg           *telemetry.Registry
	requests      *telemetry.Counter
	rejected      *telemetry.Counter
	schedRejected *telemetry.Counter
	dropped       *telemetry.Counter
	errors        *telemetry.Counter
	latency       *telemetry.Histogram
	batchHist     *telemetry.Histogram
}

// NewScheduler starts the worker pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, queue: make(chan *request, cfg.QueueDepth)}
	if r := cfg.Registry; r != nil {
		s.reg = r
		s.requests = r.Counter("serve.requests")
		s.rejected = r.Counter("serve.rejected")
		s.schedRejected = r.Counter("serve.sched.rejected")
		s.dropped = r.Counter("serve.sched.dropped")
		s.errors = r.Counter("serve.errors")
		s.latency = r.Histogram("serve.latency_ns")
		s.batchHist = r.Histogram("serve.batch_size")
		r.RegisterFunc("serve.queue.depth", func() float64 { return float64(len(s.queue)) })
		r.RegisterFunc("serve.queue.capacity", func() float64 { return float64(cfg.QueueDepth) })
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.BatchSize)
	for req := range s.queue {
		batch = append(batch[:0], req)
		// Drain adjacent requests up to the batch size: one wakeup
		// serves a whole burst.
		for len(batch) < s.cfg.BatchSize {
			select {
			case more, ok := <-s.queue:
				if !ok {
					s.run(batch)
					return
				}
				batch = append(batch, more)
			default:
				goto full
			}
		}
	full:
		s.run(batch)
	}
}

func (s *Scheduler) run(batch []*request) {
	if s.batchHist != nil {
		s.batchHist.Observe(uint64(len(batch)))
	}
	for _, req := range batch {
		begin := time.Now()
		req.tc.AddSpan("queue_wait", req.enq, 0)
		if s.reg != nil {
			s.reg.Histogram("serve.queue_wait_ns." + req.kind).Observe(uint64(begin.Sub(req.enq)))
		}
		// A request whose context died while it queued (client gone,
		// deadline passed) is dropped before any service work: servicing
		// the dead would steal capacity from live requests under exactly
		// the load that queued it.
		if err := req.ctx.Err(); err != nil {
			if s.dropped != nil {
				s.dropped.Inc()
			}
			req.tc.SetError(err)
			req.done <- response{err: err}
			continue
		}
		val, err := req.fn()
		if err != nil && s.errors != nil {
			s.errors.Inc()
		}
		if s.reg != nil {
			s.reg.Histogram("serve.service_ns." + req.kind).Observe(uint64(time.Since(begin)))
		}
		if s.latency != nil {
			s.latency.Observe(uint64(time.Since(req.enq)))
		}
		req.done <- response{val: val, err: err}
	}
}

// Do submits fn through admission and blocks for its result. A full
// queue returns *SaturatedError immediately; a closed scheduler returns
// ErrSchedulerClosed.
func (s *Scheduler) Do(kind string, fn func() (any, error)) (any, error) {
	return s.DoCtx(context.Background(), nil, kind, fn)
}

// DoCtx is Do with per-request deadline propagation and a trace context:
// a context already dead at admission is rejected without queuing, and a
// request whose context dies while queued is dropped by the worker before
// any service work runs, returning the context's error. Once fn has
// started it runs to completion — callers own resources (the snapshot
// handle) that fn borrows, so DoCtx never abandons a running fn. The
// request's queue wait is recorded as a "queue_wait" span on tc, which
// flows on into fn's closure for the query-phase spans; a nil tc means
// untraced.
func (s *Scheduler) DoCtx(ctx context.Context, tc *telemetry.TraceContext, kind string, fn func() (any, error)) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		if s.dropped != nil {
			s.dropped.Inc()
		}
		return nil, err
	}
	req := &request{ctx: ctx, kind: kind, fn: fn, done: make(chan response, 1), enq: time.Now(), tc: tc}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrSchedulerClosed
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		if s.rejected != nil {
			s.rejected.Inc()
		}
		if s.schedRejected != nil {
			s.schedRejected.Inc()
		}
		s.cfg.Recorder.Record(telemetry.FlightEvent{
			Kind:   "reject",
			Value:  uint64(s.cfg.QueueDepth),
			Detail: "admission queue saturated: " + kind,
		})
		return nil, &SaturatedError{RetryAfter: s.cfg.RetryAfter}
	}
	if s.requests != nil {
		s.requests.Inc()
	}
	resp := <-req.done
	return resp.val, resp.err
}

// Answer answers q on cat's version at step (Latest = newest) through
// sched's admission, tracing its phases on tc (nil means untraced).
func Answer(ctx context.Context, cat *Catalog, sched *Scheduler, tc *telemetry.TraceContext, step uint64, q Query) (Result, error) {
	var s *Snapshot
	var err error
	if step == Latest {
		s, err = cat.AcquireLatest()
	} else {
		s, err = cat.Acquire(step)
	}
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	val, err := sched.DoCtx(ctx, tc, q.Class.String(), func() (any, error) { return s.Query(tc, q) })
	if err != nil {
		return Result{}, err
	}
	return val.(Result), nil
}

// RetryAfter returns the configured rejection hint.
func (s *Scheduler) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Close drains queued requests and stops the workers. Pending requests
// complete; new submits fail.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}
