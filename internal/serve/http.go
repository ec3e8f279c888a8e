package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"pmoctree/internal/telemetry"
)

// HTTP/JSON front end: the query endpoints of wire.go plus
//
//	GET /v1/versions                 -> {"versions":[...],"latest":N}
//	GET /v1/trace?id=N               -> one retained request trace
//	GET /v1/trace[?n=K]              -> the K most recent traces (default all retained)
//
// Every query is admitted through the Scheduler, so saturation surfaces as
// 503 + Retry-After instead of unbounded goroutine pileup.
//
// When the handler carries a TraceSink, every query request gets a trace
// context threaded through the scheduler and the snapshot query, the
// response carries its ID in X-Trace-Id, and the finished trace —
// queue_wait, index_build (on the one query that builds a version's
// index), leaf_scan, device_read spans plus derived handler overhead — is
// retrievable from /v1/trace.

// Handler is the HTTP surface over one catalog and one scheduler.
type Handler struct {
	cat    *Catalog
	sched  *Scheduler
	traces *telemetry.TraceSink // nil when request tracing is off
	mux    *http.ServeMux
}

// NewHandler mounts the /v1 endpoints.
func NewHandler(cat *Catalog, sched *Scheduler) *Handler {
	h := &Handler{cat: cat, sched: sched, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/versions", h.versions)
	for _, c := range classNames {
		h.mux.HandleFunc("/v1/"+c, h.query)
	}
	h.mux.HandleFunc("/v1/trace", h.trace)
	return h
}

// SetTraceSink enables per-request tracing; call before serving.
func (h *Handler) SetTraceSink(ts *telemetry.TraceSink) { h.traces = ts }

// TraceSink returns the handler's sink (nil when tracing is off).
func (h *Handler) TraceSink() *telemetry.TraceSink { return h.traces }

// startTrace opens a trace for one request and stamps its ID on the
// response. Returns nil (a no-op context) when tracing is off.
func (h *Handler) startTrace(w http.ResponseWriter, kind string) *telemetry.TraceContext {
	tc := h.traces.Start(kind)
	if tc != nil {
		w.Header().Set("X-Trace-Id", strconv.FormatUint(tc.ID(), 10))
	}
	return tc
}

// trace serves retained request traces: ?id=N returns one, ?n=K returns
// the K most recent (default all retained).
func (h *Handler) trace(w http.ResponseWriter, r *http.Request) {
	if h.traces == nil {
		WriteJSON(w, http.StatusNotFound, ErrorBody{Error: "serve: request tracing is not enabled"})
		return
	}
	q := r.URL.Query()
	if ids := q.Get("id"); ids != "" {
		id, err := strconv.ParseUint(ids, 10, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "id must be an unsigned integer"})
			return
		}
		rt, ok := h.traces.Get(id)
		if !ok {
			WriteJSON(w, http.StatusNotFound, ErrorBody{Error: fmt.Sprintf("serve: trace %d is not retained", id)})
			return
		}
		WriteJSON(w, http.StatusOK, rt)
		return
	}
	n := 0
	if ns := q.Get("n"); ns != "" {
		var err error
		n, err = strconv.Atoi(ns)
		if err != nil || n < 0 {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "n must be a non-negative integer"})
			return
		}
	}
	WriteJSON(w, http.StatusOK, h.traces.Recent(n))
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) versions(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, NewVersionsBody(h.cat.Steps()))
}

// query answers /v1/point, /v1/region and /v1/agg.
func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	req, err := ParseRequest(r.URL)
	if err != nil {
		WriteError(w, err)
		return
	}
	tc := h.startTrace(w, req.Class.String())
	defer tc.Finish()
	res, err := Answer(r.Context(), h.cat, h.sched, tc, req.Version, req.Query)
	if err != nil {
		tc.SetError(err)
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, Body(req, res, nil))
}
