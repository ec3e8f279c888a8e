package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Health tracks a serving process's liveness, readiness, and degraded
// states, and renders the conventional /healthz and /readyz endpoints.
//
// Semantics: /healthz is liveness — it answers 200 as long as the process
// can answer at all, and its body lists any degraded states (scrub
// repairs, restore-from-fallback, sustained saturation) so an operator
// sees trouble without the orchestrator restarting a still-useful
// process. /readyz is readiness — 503 until SetReady(true) and while any
// registered readiness check fails, so load balancers drain a process
// that cannot currently serve.
type Health struct {
	mu       sync.Mutex
	ready    bool
	degraded map[string]string       // reason -> detail
	checks   map[string]func() error // readiness checks by name
}

// NewHealth returns a not-yet-ready health tracker.
func NewHealth() *Health {
	return &Health{degraded: map[string]string{}, checks: map[string]func() error{}}
}

// SetReady flips readiness. All methods are nil-safe.
func (h *Health) SetReady(ok bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.ready = ok
	h.mu.Unlock()
}

// Degrade records a degraded state under reason; recording the same
// reason again replaces the detail.
func (h *Health) Degrade(reason, detail string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.degraded[reason] = detail
	h.mu.Unlock()
}

// Clear removes a degraded state.
func (h *Health) Clear(reason string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	delete(h.degraded, reason)
	h.mu.Unlock()
}

// AddCheck registers a named readiness check, evaluated on every /readyz
// request; a non-nil error makes the process not ready.
func (h *Health) AddCheck(name string, fn func() error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.checks[name] = fn
	h.mu.Unlock()
}

// HealthStatus is the JSON body of both endpoints.
type HealthStatus struct {
	Status   string            `json:"status"` // "ok", "degraded", or "unready"
	Ready    bool              `json:"ready"`
	Degraded map[string]string `json:"degraded,omitempty"`
	Failing  map[string]string `json:"failing,omitempty"` // readiness checks currently erroring
}

// Status evaluates the current state (running every readiness check).
func (h *Health) Status() HealthStatus {
	if h == nil {
		return HealthStatus{Status: "ok", Ready: true}
	}
	h.mu.Lock()
	st := HealthStatus{Ready: h.ready, Degraded: map[string]string{}}
	for k, v := range h.degraded {
		st.Degraded[k] = v
	}
	names := make([]string, 0, len(h.checks))
	for name := range h.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	checks := make([]func() error, len(names))
	for i, name := range names {
		checks[i] = h.checks[name]
	}
	h.mu.Unlock()

	// Checks run outside the lock so a slow check never blocks Degrade.
	for i, name := range names {
		if err := checks[i](); err != nil {
			if st.Failing == nil {
				st.Failing = map[string]string{}
			}
			st.Failing[name] = err.Error()
		}
	}
	st.Ready = st.Ready && len(st.Failing) == 0
	switch {
	case !st.Ready:
		st.Status = "unready"
	case len(st.Degraded) > 0:
		st.Status = "degraded"
	default:
		st.Status = "ok"
	}
	if len(st.Degraded) == 0 {
		st.Degraded = nil
	}
	return st
}

// HealthzHandler serves liveness: always 200 while the process answers,
// body reporting any degraded states.
func (h *Health) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeHealthJSON(w, http.StatusOK, h.Status())
	})
}

// ReadyzHandler serves readiness: 200 when ready and every check passes,
// 503 otherwise.
func (h *Health) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		st := h.Status()
		code := http.StatusOK
		if !st.Ready {
			code = http.StatusServiceUnavailable
		}
		writeHealthJSON(w, code, st)
	})
}

func writeHealthJSON(w http.ResponseWriter, code int, st HealthStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(st)
}
