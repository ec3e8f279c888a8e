package serve

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"pmoctree/internal/telemetry"
)

var errShuttingDown = errors.New("serve: shutting down")

// Drainer wraps a serving handler for graceful shutdown. The SIGTERM
// sequence a load-balanced process owes its balancer:
//
//  1. Shutdown flips /readyz to 503 first (via the Health registry), so
//     the balancer stops sending new traffic;
//  2. new requests arriving anyway are refused with 503 + Retry-After
//     instead of being half-served by a dying process;
//  3. requests already in flight drain to completion, bounded by a
//     timeout so a wedged query cannot hold the process hostage.
//
// Mount /healthz and /readyz outside the Drainer: they must keep
// answering while the drain runs, or the balancer cannot see the flip.
type Drainer struct {
	inner      http.Handler
	health     *telemetry.Health
	retryAfter time.Duration

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	refused *telemetry.Counter
}

// NewDrainer wraps inner. health may be nil (no /readyz flip);
// retryAfter <= 0 defaults to 1s. Registry, when non-nil, receives the
// serve.drain.refused counter.
func NewDrainer(inner http.Handler, health *telemetry.Health, retryAfter time.Duration, reg *telemetry.Registry) *Drainer {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	d := &Drainer{inner: inner, health: health, retryAfter: retryAfter}
	if reg != nil {
		d.refused = reg.Counter("serve.drain.refused")
	}
	return d
}

func (d *Drainer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		if d.refused != nil {
			d.refused.Inc()
		}
		WriteRetry(w, errShuttingDown, d.retryAfter)
		return
	}
	// Add under the same lock that guards the draining flag, so Shutdown
	// never starts waiting between our check and our Add.
	d.inflight.Add(1)
	d.mu.Unlock()
	defer d.inflight.Done()
	d.inner.ServeHTTP(w, r)
}

// Draining reports whether Shutdown has begun.
func (d *Drainer) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Shutdown stops admission — flipping readiness to 503 before the first
// refusal — and waits up to timeout for in-flight requests to complete.
// Returns true when the drain finished cleanly, false when the timeout
// expired with requests still running. Idempotent; later calls just wait
// again.
func (d *Drainer) Shutdown(timeout time.Duration) bool {
	d.health.SetReady(false) // nil-safe
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	done := make(chan struct{})
	go func() {
		d.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}
