package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// eventually runs GC until cond holds, failing after a few seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunReleasesClosure: once Run returns, the pool keeps nothing its fn
// captured alive — not between runs, and not while a Warm scope keeps the
// helpers spinning.
func TestRunReleasesClosure(t *testing.T) {
	for _, warm := range []bool{false, true} {
		p := NewForced(2)
		var freed atomic.Bool
		run := func() {
			big := new([1 << 16]float64)
			runtime.SetFinalizer(big, func(*[1 << 16]float64) { freed.Store(true) })
			p.Run(4*minParallel, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					big[i%len(big)] = 1
				}
			})
		}
		check := func() {
			run()
			eventually(t, "closure collected", freed.Load)
		}
		if warm {
			p.Warm(check)
		} else {
			check()
		}
		runtime.KeepAlive(p)
	}
}

// TestDroppedPoolsStopHelpers: the helpers of unreachable pools exit.
func TestDroppedPoolsStopHelpers(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		NewForced(2).Run(minParallel, func(lo, hi int) {})
	}
	eventually(t, "helpers stopped", func() bool { return runtime.NumGoroutine() <= base+10 })
}

// TestConcurrentNestedRuns: goroutines sharing one pool, each Run nesting
// another inside fn, still visit every index exactly once. Runs that find
// the team busy execute inline.
func TestConcurrentNestedRuns(t *testing.T) {
	p := NewForced(3)
	const n = 8 * minParallel
	var wg sync.WaitGroup
	seen := make([][]int32, 8)
	for g := range seen {
		seen[g] = make([]int32, n)
		wg.Add(1)
		go func(seen []int32) {
			defer wg.Done()
			p.Run(n, func(lo, hi int) {
				p.RunMin(hi-lo, 1, func(a, b int) {
					for i := lo + a; i < lo+b; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
			})
		}(seen[g])
	}
	wg.Wait()
	for g := range seen {
		for i, c := range seen[g] {
			if c != 1 {
				t.Fatalf("goroutine %d: index %d visited %d times", g, i, c)
			}
		}
	}
}

// TestPanicKeepsPoolUsable: a panic in fn, on the caller's chunk or a
// helper's, inside a Warm scope or not, reaches the caller, and the pool
// runs the next range in full.
func TestPanicKeepsPoolUsable(t *testing.T) {
	p := NewForced(2)
	const n = 4 * minParallel
	for _, warm := range []bool{false, true} {
		for _, at := range []int{0, n - 1} {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("warm=%v at=%d: recovered %v, want boom", warm, at, r)
					}
				}()
				run := func() {
					p.Run(n, func(lo, hi int) {
						if lo <= at && at < hi {
							panic("boom")
						}
					})
				}
				if warm {
					p.Warm(run)
				} else {
					run()
				}
			}()
			var visited atomic.Int64
			p.Run(n, func(lo, hi int) { visited.Add(int64(hi - lo)) })
			if visited.Load() != n {
				t.Fatalf("warm=%v at=%d: next run visited %d of %d", warm, at, visited.Load(), n)
			}
		}
	}
}
