package parallel

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"pmoctree/internal/telemetry"
)

func TestClamp(t *testing.T) {
	if got := Clamp(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Clamp(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Clamp(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Clamp(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Clamp(7); got != 7 {
		t.Fatalf("Clamp(7) = %d, want 7", got)
	}
}

func TestNilPoolInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d, want 1", p.Workers())
	}
	calls := 0
	p.Run(10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("nil pool chunk [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool made %d calls, want 1", calls)
	}
}

// TestRunCoversEveryIndex checks that every index is visited exactly once
// at several worker counts and range sizes (run with -race to catch
// overlapping chunks).
func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 9} {
		for _, n := range []int{0, 1, 7, minParallel - 1, minParallel, 3*minParallel + 17} {
			p := New(workers)
			seen := make([]int32, n)
			p.Run(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	New(4).Run(minParallel*4, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}

// TestDotWorkerCountInvariant is the determinism contract: blocked
// reductions must be bit-identical at every worker count, nil pool
// included.
func TestDotWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1,
		minReduce - BlockSize - 1, minReduce - 1, minReduce, minReduce + 1, minReduce + BlockSize + 1,
		64*1024 + 129} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 1e3
			b[i] = rng.NormFloat64() * 1e-3
		}
		var nilPool *Pool
		want := nilPool.Dot(a, b)
		wantSum := nilPool.Sum(n, func(i int) float64 { return a[i] * b[i] })
		if want != wantSum {
			t.Fatalf("n=%d: Dot %v != Sum %v on nil pool", n, want, wantSum)
		}
		for _, p := range []*Pool{New(1), New(2), New(4), New(16), NewForced(2), NewForced(3)} {
			workers := p.Workers()
			if got := p.Dot(a, b); got != want {
				t.Fatalf("n=%d workers=%d: Dot %v, want bit-identical %v", n, workers, got, want)
			}
			if got := p.Sum(n, func(i int) float64 { return a[i] * b[i] }); got != want {
				t.Fatalf("n=%d workers=%d: Sum %v, want bit-identical %v", n, workers, got, want)
			}
			if got, want2 := p.Norm2(a), nilPool.Norm2(a); got != want2 {
				t.Fatalf("n=%d workers=%d: Norm2 %v, want %v", n, workers, got, want2)
			}
		}
	}
}

func TestInstrument(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(4)
	p.Instrument(reg, "test.pool")
	p.Run(3*minParallel, func(lo, hi int) {})
	snap := reg.Snapshot()
	if snap.Counters["test.pool.runs"] != 1 {
		t.Fatalf("runs = %d, want 1", snap.Counters["test.pool.runs"])
	}
	if c := snap.Counters["test.pool.chunks"]; c == 0 {
		t.Fatal("chunks = 0, want > 0")
	}
	if h := snap.Histograms["test.pool.chunk_ns"]; h.Count == 0 {
		t.Fatal("chunk_ns histogram empty")
	}
	if w := snap.Gauges["test.pool.workers"]; w != 4 {
		t.Fatalf("workers gauge = %v, want 4", w)
	}
	u := snap.Gauges["test.pool.utilization"]
	if u < 0 || u > 1 {
		t.Fatalf("utilization %v outside [0,1]", u)
	}
	// Instrumenting nil receivers must be a no-op.
	var nilPool *Pool
	nilPool.Instrument(reg, "x")
	p.Instrument(nil, "y")
}

// TestEffectiveClampsToGOMAXPROCS pins the scheduling-width rule: a pool
// may be configured wider than the machine, but it never schedules more
// goroutines than processors (oversubscription only adds churn, and
// determinism makes the clamp invisible in results).
func TestEffectiveClampsToGOMAXPROCS(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	if got := New(64 * maxp).effective(); got != maxp {
		t.Fatalf("effective() = %d, want GOMAXPROCS %d", got, maxp)
	}
	if got := New(1).effective(); got != 1 {
		t.Fatalf("effective() = %d, want 1", got)
	}
	var nilPool *Pool
	if got := nilPool.effective(); got != 1 {
		t.Fatalf("nil pool effective() = %d, want 1", got)
	}
}

// TestForceWidthChunking drives the chunked scheduling path regardless of
// the machine's CPU count (the forceWidth hook bypasses the GOMAXPROCS
// clamp), checking exact index coverage and that the range was actually
// split. Run with -race: worker goroutines and the participating caller
// share the cursor and the panic slot.
func TestForceWidthChunking(t *testing.T) {
	for _, width := range []int{2, 4, 7} {
		p := New(width)
		p.forceWidth = width
		n := 3*minParallel + 17
		seen := make([]int32, n)
		var calls atomic.Int32
		p.Run(n, func(lo, hi int) {
			calls.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("width=%d: index %d visited %d times", width, i, c)
			}
		}
		if calls.Load() < 2 {
			t.Fatalf("width=%d: %d chunks, want the range split", width, calls.Load())
		}
	}
}

// TestForceWidthPanicPropagates exercises the chunked path's panic
// collection, including a panic raised on the calling goroutine itself
// (the caller participates as a worker).
func TestForceWidthPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	p := New(4)
	p.forceWidth = 4
	p.Run(minParallel*4, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}

// TestRunMinCutoff checks the per-site serial cutoff: below minN the
// range runs inline as one chunk even on a forced-wide pool; at minN it
// is scheduled in chunks.
func TestRunMinCutoff(t *testing.T) {
	p := New(4)
	p.forceWidth = 4
	var calls atomic.Int32
	p.RunMin(999, 1000, func(lo, hi int) {
		calls.Add(1)
		if lo != 0 || hi != 999 {
			t.Fatalf("sub-cutoff chunk [%d,%d), want [0,999)", lo, hi)
		}
	})
	if calls.Load() != 1 {
		t.Fatalf("sub-cutoff range ran in %d chunks, want 1", calls.Load())
	}
	calls.Store(0)
	p.RunMin(1000, 1000, func(lo, hi int) { calls.Add(1) })
	if calls.Load() < 2 {
		t.Fatalf("at-cutoff range ran in %d chunks, want split", calls.Load())
	}
}

// TestReduceCutoff: blocked reductions go to the team from minReduce
// elements (an element count, not a block count) and run inline below.
func TestReduceCutoff(t *testing.T) {
	for _, n := range []int{minReduce - 1, minReduce} {
		p := NewForced(2)
		reg := telemetry.NewRegistry()
		p.Instrument(reg, "pool")
		a := make([]float64, n)
		p.Dot(a, a)
		chunks := reg.Snapshot().Counters["pool.chunks"]
		if split := chunks > 1; split != (n >= minReduce) {
			t.Fatalf("n=%d: %d chunks", n, chunks)
		}
	}
}

// TestRunMinCoversEveryIndex is TestRunCoversEveryIndex for the RunMin
// entry point with aggressive cutoffs.
func TestRunMinCoversEveryIndex(t *testing.T) {
	for _, minN := range []int{1, 64, 100000} {
		for _, n := range []int{0, 1, 63, 64, 4097} {
			p := New(3)
			p.forceWidth = 3
			seen := make([]int32, n)
			p.RunMin(n, minN, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("minN=%d n=%d: index %d visited %d times", minN, n, i, c)
				}
			}
		}
	}
}

// poolWorkload is a stencil-weight synthetic body (a few dozen flops per
// index) at the fluid/solver sweep sizes of the PR 2 benchmarks.
func poolWorkload(out []float64) func(lo, hi int) {
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := float64(i%1024) * 1e-3
			acc := 0.0
			for k := 0; k < 24; k++ {
				acc += x * float64(k+1)
				x = x*0.99 + 1e-6
			}
			out[i] = acc
		}
	}
}

// BenchmarkPoolCrossover is the regression guard for the PR 2 finding
// that -workers 4 was SLOWER than serial: with the GOMAXPROCS clamp,
// serial cutoffs and caller participation, a 4-worker pool must be at
// least as fast as the serial pool on the same sweep. Compare the
// serial/workers4 sub-benchmarks.
//
// The dependent/* cases time the shape of one projection solve: 200 runs
// of a light 50k-index sweep, each followed by a short serial gap. On a cold
// team every run pays a helper wake-up; inside Warm the helpers are
// already polling. Compare dependent/serial, dependent/cold and
// dependent/warm.
func BenchmarkPoolCrossover(b *testing.B) {
	const n = 200_000
	out := make([]float64, n)
	b.Run("serial", func(b *testing.B) {
		var p *Pool
		for i := 0; i < b.N; i++ {
			p.Run(n, poolWorkload(out))
		}
	})
	b.Run("workers4", func(b *testing.B) {
		p := New(4)
		for i := 0; i < b.N; i++ {
			p.Run(n, poolWorkload(out))
		}
	})
	dependent := func(p *Pool) {
		// An axpy-weight sweep, about as long as one of the solve's.
		sweep := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = 0.5*out[i] + 1
			}
		}
		for r := 0; r < 200; r++ {
			p.RunMin(50_000, 1, sweep)
			poolWorkload(out[:64])(0, 64) // the serial gap
		}
	}
	b.Run("dependent/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dependent(nil)
		}
	})
	b.Run("dependent/cold", func(b *testing.B) {
		p := New(2)
		for i := 0; i < b.N; i++ {
			dependent(p)
		}
	})
	b.Run("dependent/warm", func(b *testing.B) {
		p := New(2)
		for i := 0; i < b.N; i++ {
			p.Warm(func() { dependent(p) })
		}
	})
}
