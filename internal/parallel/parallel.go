// Package parallel provides the shared-memory worker pool behind the hot
// solve/refine/advect paths: chunked index-range scheduling over a team of
// long-lived helper goroutines, plus deterministic blocked reductions.
//
// Determinism contract (DESIGN.md decision 9): every reduction sums
// fixed-size blocks serially and folds the block partials together in
// block-index order, so the result is bit-identical for ANY worker count —
// including the nil pool's inline serial execution. Parallelism may change
// wall time, never floating-point results; residual histories and iteration
// counts of the solvers stay reproducible at -workers 1 and -workers 64
// alike.
//
// A nil *Pool is valid and runs everything inline on the calling
// goroutine, so call sites pay one pointer test when parallelism is off.
package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmoctree/internal/telemetry"
)

// BlockSize is the fixed reduction granularity: reductions accumulate
// blocks of this many consecutive elements serially and combine the block
// partials in index order. It is a constant of the numerics, not a tuning
// knob — changing it changes rounding, exactly like changing a stencil.
const BlockSize = 1024

// minParallel is the smallest index range worth scheduling on the helper
// team; below it Run executes inline regardless of worker count. Call
// sites with heavier or lighter per-index work pick their own cutoff via
// RunMin.
const minParallel = 2048

// minReduce is the smallest vector, in elements, whose blocked reduction
// is scheduled on the team: below it Dot, Norm2 and Sum fold every block
// on the caller. Measured with a warm team on the flow_projection solve
// (two multiply-adds per element).
const minReduce = 1 << 15

// spinFor bounds how long an idle helper inside a Warm scope keeps
// polling for the next run before it parks.
const spinFor = 200 * time.Microsecond

// Clamp normalizes a worker-count request: n <= 0 (the "use the machine"
// default, e.g. an unset -workers flag) becomes GOMAXPROCS; anything else
// is returned unchanged.
func Clamp(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool is a bounded worker pool scheduling chunked index ranges. The zero
// value and the nil pool both execute inline with one worker; construct
// pools with New.
//
// A pool's first parallel run starts its helper team: effective()-1
// goroutines that live as long as the pool and run every parallel range
// beside the caller. Between runs they park, or, inside a Warm scope,
// spin for up to spinFor first. A run that finds the team busy (a nested
// Run, or a concurrent one from another goroutine) executes inline. The
// team holds no reference to a run once Run returns, and stops when the
// pool becomes unreachable.
type Pool struct {
	workers int

	// forceWidth, when nonzero, bypasses the GOMAXPROCS clamp in
	// effective(). Test hook only: it lets scheduling/chunking paths be
	// exercised (including under -race) on single-CPU machines.
	forceWidth int

	team atomic.Pointer[team] // nil until the first parallel run

	// Optional telemetry, attached by Instrument; all nil by default so
	// uninstrumented Run calls skip the clock reads entirely.
	runs    *telemetry.Counter
	chunks  *telemetry.Counter
	chunkNs *telemetry.Histogram
	util    *telemetry.Gauge
}

// New returns a pool with the given worker count (<= 0 selects
// GOMAXPROCS). A 1-worker pool never starts goroutines.
func New(workers int) *Pool {
	return &Pool{workers: Clamp(workers)}
}

// NewForced returns a pool that schedules exactly workers goroutines,
// bypassing the GOMAXPROCS clamp in effective(). Test hook: it lets
// worker-count-invariance suites exercise real concurrent scheduling —
// chunk handout, dirty-flag writes, the race detector — on single-CPU
// machines where New's pools would run inline. Production call sites use
// New; oversubscription only helps when the goal is to provoke races.
func NewForced(workers int) *Pool {
	return &Pool{workers: workers, forceWidth: workers}
}

// Workers reports the configured scheduling width; the nil pool has one
// worker. This is the determinism-relevant width (reduction blocking is
// independent of it anyway); the width actually scheduled is effective().
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// effective returns the scheduling width actually used: the configured
// width clamped to GOMAXPROCS. Oversubscribing a machine with more
// goroutines than processors cannot make data-parallel loops faster —
// it only adds scheduler churn and cursor contention — and the
// determinism contract makes the clamp invisible in results: any worker
// count produces bit-identical output, so scheduling width is free to
// follow the hardware.
func (p *Pool) effective() int {
	if p != nil && p.forceWidth > 0 {
		return p.forceWidth
	}
	w := p.Workers()
	if maxp := runtime.GOMAXPROCS(0); w > maxp {
		w = maxp
	}
	return w
}

// Instrument registers the pool's metrics under prefix in reg:
// <prefix>.runs and <prefix>.chunks count scheduling activity,
// <prefix>.chunk_ns is the per-chunk latency distribution, and
// <prefix>.utilization is the busy fraction (sum of chunk busy time over
// workers x wall time) of the most recent parallel Run. The workers gauge
// records the configured width.
func (p *Pool) Instrument(reg *telemetry.Registry, prefix string) {
	if p == nil || reg == nil {
		return
	}
	p.runs = reg.Counter(prefix + ".runs")
	p.chunks = reg.Counter(prefix + ".chunks")
	p.chunkNs = reg.Histogram(prefix + ".chunk_ns")
	p.util = reg.Gauge(prefix + ".utilization")
	reg.Gauge(prefix + ".workers").Set(float64(p.Workers()))
	reg.Gauge(prefix + ".workers_effective").Set(float64(p.effective()))
}

// Run partitions [0, n) into contiguous chunks and invokes fn(lo, hi) for
// each, across the pool's workers. Chunk boundaries are a scheduling
// detail: fn must treat every index in [lo, hi) independently (or reduce
// through Sum/Dot, whose blocking is fixed). Run returns after every chunk
// completes; a panic inside fn is re-raised on the calling goroutine.
func (p *Pool) Run(n int, fn func(lo, hi int)) {
	p.RunMin(n, minParallel, fn)
}

// RunMin is Run with a per-site serial cutoff: ranges shorter than minN
// execute inline. Dispatch overhead is fixed per Run while the work
// scales with n x (per-index cost), so each call site should set minN to
// roughly where the two cross — a few hundred indexes for expensive
// bodies (octree advection), tens of thousands for three-flop axpy loops.
func (p *Pool) RunMin(n, minN int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.effective()
	if w == 1 || n < minN {
		p.runInline(n, fn)
		return
	}
	// Chunks are finer than workers so a straggler chunk cannot idle the
	// rest of the pool; an atomic cursor hands them out.
	p.runChunked(n, w, (n+4*w-1)/(4*w), fn)
}

// Warm runs fn with the pool's helpers kept awake between runs: a helper
// that finishes a run polls for the next one for up to spinFor before it
// parks, so a chain of dependent sweeps does not pay a goroutine wake-up
// per sweep. Scopes nest. Outside every scope idle helpers park at once,
// leaving the processors to whatever else the program runs.
func (p *Pool) Warm(fn func()) {
	if p.effective() == 1 {
		fn()
		return
	}
	t := p.helpers()
	if t.warm.Add(1) == 1 {
		t.nudge() // start the parked helpers spinning before the first run
	}
	defer t.warm.Add(-1)
	fn()
}

// runChunked schedules [0, n) in chunk-sized pieces over w workers: the
// calling goroutine and up to w-1 helpers of the team, which join while
// chunks remain. The caller never waits for a helper that has not joined.
func (p *Pool) runChunked(n, w, chunk int, fn func(lo, hi int)) {
	if nchunks := (n + chunk - 1) / chunk; w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		p.runInline(n, fn)
		return
	}
	t := p.helpers()
	if !t.busy.CompareAndSwap(false, true) {
		p.runInline(n, fn)
		return
	}
	j := &job{fn: fn, n: n, chunk: chunk, max: int64(min(w-1, t.size))}
	var start time.Time
	if p.chunkNs != nil {
		j.timed, start = p, time.Now()
	}
	t.gen++
	j.gen = t.gen
	t.job.Store(j)
	t.nudge()
	j.work()
	t.finish(j)
	if j.timed != nil {
		p.runs.Inc()
		if wall := time.Since(start).Nanoseconds(); wall > 0 {
			p.util.Set(float64(j.busyNs.Load()) / (float64(wall) * float64(p.Workers())))
		}
	}
	if j.panicV != nil {
		panic(j.panicV)
	}
}

// helpers returns the pool's team, starting it on first use. The team's
// goroutines reference only the team, so the pool stays collectable; its
// finalizer stops them.
func (p *Pool) helpers() *team {
	if t := p.team.Load(); t != nil {
		return t
	}
	t := &team{size: p.effective() - 1, done: make(chan struct{}, 1)}
	t.wake = sync.NewCond(&t.mu)
	if !p.team.CompareAndSwap(nil, t) {
		return p.team.Load()
	}
	runtime.SetFinalizer(p, func(p *Pool) { p.team.Load().stop() })
	for i := 0; i < t.size; i++ {
		go t.help()
	}
	return t
}

// runInline executes the whole range on the calling goroutine, still
// feeding the telemetry so serial and parallel runs are comparable.
func (p *Pool) runInline(n int, fn func(lo, hi int)) {
	if p != nil && p.chunkNs != nil {
		t0 := time.Now()
		fn(0, n)
		p.chunkNs.Observe(uint64(time.Since(t0).Nanoseconds()))
		p.chunks.Inc()
		p.runs.Inc()
		p.util.Set(1)
		return
	}
	fn(0, n)
}

// closed marks a job's refs once the caller has run out of chunks: no
// helper may join it after that.
const closed = 1 << 62

// job is one parallel run, shared by its caller and the helpers that join.
type job struct {
	gen      uint64 // the team's run number, so helpers never rejoin a run
	fn       func(lo, hi int)
	n, chunk int
	cursor   atomic.Int64
	refs     atomic.Int64 // helpers inside the run, plus closed
	max      int64        // helpers allowed to join

	timed  *Pool // the instrumented pool, nil when uninstrumented
	busyNs atomic.Int64

	panicMu sync.Mutex
	panicV  any
}

// work takes chunks until none are left. A panic in fn ends this worker's
// share and is kept for the caller to re-raise.
func (j *job) work() {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if j.panicV == nil {
				j.panicV = r
			}
			j.panicMu.Unlock()
		}
	}()
	for {
		lo := int(j.cursor.Add(int64(j.chunk))) - j.chunk
		if lo >= j.n {
			return
		}
		hi := min(lo+j.chunk, j.n)
		if p := j.timed; p != nil {
			t0 := time.Now()
			j.fn(lo, hi)
			d := time.Since(t0).Nanoseconds()
			j.busyNs.Add(d)
			p.chunkNs.Observe(uint64(d))
			p.chunks.Inc()
		} else {
			j.fn(lo, hi)
		}
	}
}

// join enters j unless its caller has closed it or it is full.
func (j *job) join() bool {
	for {
		v := j.refs.Load()
		if v&closed != 0 || v >= j.max {
			return false
		}
		if j.refs.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// team is a pool's helper goroutines. One run at a time holds it (busy);
// the holder posts the run in job and clears job before it lets go.
type team struct {
	size int // helper goroutines; the caller is one more worker
	busy atomic.Bool
	gen  uint64 // number of the last posted run; written by the holder only
	job  atomic.Pointer[job]
	warm atomic.Int32  // depth of Warm scopes
	done chan struct{} // the last helper out of a closed job signals the caller

	// Parked helpers wait on wake for epoch to move: a posted run, a
	// Warm scope's first entry, or stop.
	mu       sync.Mutex
	wake     *sync.Cond
	epoch    atomic.Uint64
	sleeping atomic.Int32
	stopped  atomic.Bool
}

// nudge wakes the parked helpers.
func (t *team) nudge() {
	t.epoch.Add(1)
	if t.sleeping.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
}

// stop ends the helpers; the pool's finalizer calls it.
func (t *team) stop() {
	t.stopped.Store(true)
	t.nudge()
}

// finish closes j to joiners, waits for the helpers inside it, and
// releases the team with no reference to j left behind. Inside a Warm
// scope the caller polls for up to spinFor before it blocks: a joined
// helper is at most one chunk from done, and parking would hand the
// caller's processor away, so the next run would start without it.
// Outside one it blocks at once and leaves the processor to others.
func (t *team) finish(j *job) {
	if j.refs.Add(closed) != closed { // helpers are still inside
		if t.warm.Load() > 0 {
			for start := time.Now(); j.refs.Load() != closed && time.Since(start) < spinFor; {
			}
		}
		<-t.done
	}
	t.job.Store(nil)
	t.busy.Store(false)
}

// help is a helper goroutine's loop: join each posted run once, spin
// between runs inside a Warm scope, park otherwise.
func (t *team) help() {
	var seen uint64
	var idle time.Time // when this helper ran out of work; zero while busy
	for !t.stopped.Load() {
		e := t.epoch.Load()
		if j := t.job.Load(); j != nil && j.gen != seen {
			seen = j.gen
			if j.join() {
				j.work()
				if j.refs.Add(-1) == closed {
					t.done <- struct{}{}
				}
			}
			idle = time.Time{}
			continue
		}
		if t.warm.Load() > 0 {
			if idle.IsZero() {
				idle = time.Now()
			}
			if time.Since(idle) < spinFor {
				runtime.Gosched()
				continue
			}
		}
		t.park(e)
		idle = time.Time{}
	}
}

// park blocks until the epoch moves past e. A poster bumps the epoch
// before it reads sleeping, and a helper counts itself sleeping before it
// rereads the epoch, so one of the two always sees the other.
func (t *team) park(e uint64) {
	t.mu.Lock()
	t.sleeping.Add(1)
	for t.epoch.Load() == e {
		t.wake.Wait()
	}
	t.sleeping.Add(-1)
	t.mu.Unlock()
}

// Dot returns the deterministic blocked inner product of a and b: each
// BlockSize-aligned block is summed serially, and the partials are folded
// in block-index order. The result is bit-identical for every worker
// count, including the nil pool.
func (p *Pool) Dot(a, b []float64) float64 {
	n := len(a)
	if n <= BlockSize {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += a[i] * b[i]
		}
		return acc
	}
	nb := (n + BlockSize - 1) / BlockSize
	partials := make([]float64, nb)
	p.runBlocks(n, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			i := blk * BlockSize
			end := i + BlockSize
			if end > n {
				end = n
			}
			acc := 0.0
			for ; i < end; i++ {
				acc += a[i] * b[i]
			}
			partials[blk] = acc
		}
	})
	acc := 0.0
	for _, v := range partials {
		acc += v
	}
	return acc
}

// runBlocks schedules the reduction blocks of an n-element vector with
// one contiguous chunk per worker instead of Run's fine 4x-oversplit.
// Reduction blocks are uniform (BlockSize multiply-adds each), so finer
// chunks buy no load balance and only add cursor traffic; solver
// reductions run every CG iteration, so the per-Run overhead matters more
// here than anywhere else.
func (p *Pool) runBlocks(n int, fn func(lo, hi int)) {
	nb := (n + BlockSize - 1) / BlockSize
	w := p.effective()
	if w == 1 || n < minReduce {
		p.runInline(nb, fn)
		return
	}
	p.runChunked(nb, w, (nb+w-1)/w, fn)
}

// Norm2 returns sqrt(Dot(a, a)) with the same determinism guarantee.
func (p *Pool) Norm2(a []float64) float64 {
	return math.Sqrt(p.Dot(a, a))
}

// Sum reduces term(i) over [0, n) with the blocked deterministic
// summation. term must be a pure function of i during the call.
func (p *Pool) Sum(n int, term func(i int) float64) float64 {
	if n <= BlockSize {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += term(i)
		}
		return acc
	}
	nb := (n + BlockSize - 1) / BlockSize
	partials := make([]float64, nb)
	p.runBlocks(n, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			i := blk * BlockSize
			end := i + BlockSize
			if end > n {
				end = n
			}
			acc := 0.0
			for ; i < end; i++ {
				acc += term(i)
			}
			partials[blk] = acc
		}
	})
	acc := 0.0
	for _, v := range partials {
		acc += v
	}
	return acc
}
