package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"pmoctree/internal/core"
	"pmoctree/internal/telemetry"
)

// HTTP/JSON front end. GET endpoints, query-string parameters, JSON
// bodies; every request is admitted through the Scheduler, so saturation
// surfaces as 503 + Retry-After instead of unbounded goroutine pileup.
//
//	GET /v1/versions                 -> {"versions":[...],"latest":N}
//	GET /v1/point?x=&y=&z=[&version=]
//	GET /v1/region?x0=&y0=&z0=&x1=&y1=&z1=[&version=][&limit=][&klo=&khi=]
//	GET /v1/agg?field=[&x0=&y0=&z0=&x1=&y1=&z1=][&version=][&klo=&khi=]  (no bounds = whole domain)
//	GET /v1/trace?id=N               -> one retained request trace
//	GET /v1/trace[?n=K]              -> the K most recent traces (default all retained)
//
// version selects a pinned committed step; omitted means newest. klo/khi
// restrict region and agg responses to leaves whose Z-order key lies in
// the inclusive range — the filter a sharded router scatters with.
//
// When the handler carries a TraceSink, every query request gets a trace
// context threaded through the scheduler and the snapshot query, the
// response carries its ID in X-Trace-Id, and the finished trace —
// queue_wait, index_build, leaf_scan, device_read spans plus derived
// handler overhead — is retrievable from /v1/trace.

type versionsResp struct {
	Versions []uint64 `json:"versions"`
	Latest   uint64   `json:"latest"`
}

type pointResp struct {
	Version uint64                  `json:"version"`
	Code    string                  `json:"code"`
	Level   uint8                   `json:"level"`
	Center  [3]float64              `json:"center"`
	Extent  float64                 `json:"extent"`
	Data    [core.DataWords]float64 `json:"data"`
}

type regionLeaf struct {
	Code string                  `json:"code"`
	Data [core.DataWords]float64 `json:"data"`
}

type regionResp struct {
	Version   uint64       `json:"version"`
	Count     int          `json:"count"`
	Truncated bool         `json:"truncated,omitempty"`
	Leaves    []regionLeaf `json:"leaves"`
}

type aggResp struct {
	Version uint64  `json:"version"`
	Field   int     `json:"field"`
	Count   int     `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	VolSum  float64 `json:"vol_sum"`
}

type errResp struct {
	Error      string   `json:"error"`
	RetryAfter int64    `json:"retry_after_ms,omitempty"`
	Available  []uint64 `json:"available,omitempty"`
}

// Handler is the HTTP surface over one catalog and one scheduler.
type Handler struct {
	cat    *Catalog
	sched  *Scheduler
	traces *telemetry.TraceSink // nil when request tracing is off
	span   KeyRange             // shard responsibility; zero = full key space
	mux    *http.ServeMux
}

// NewHandler mounts the /v1 endpoints.
func NewHandler(cat *Catalog, sched *Scheduler) *Handler {
	h := &Handler{cat: cat, sched: sched, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/versions", h.versions)
	h.mux.HandleFunc("/v1/point", h.point)
	h.mux.HandleFunc("/v1/region", h.region)
	h.mux.HandleFunc("/v1/agg", h.agg)
	h.mux.HandleFunc("/v1/trace", h.trace)
	return h
}

// SetTraceSink enables per-request tracing; call before serving.
func (h *Handler) SetTraceSink(ts *telemetry.TraceSink) { h.traces = ts }

// RestrictSpan sets the handler's default responsibility span — the
// pmserve -shard filter applied to region and aggregate requests that
// carry no klo/khi of their own. Explicit klo/khi parameters override
// it rather than intersecting with it: every shard process holds the
// full committed image (responsibility, not data, is partitioned), and
// a router performing peer takeover for a dead shard must be able to
// ask a healthy peer for the dead shard's span and get an exact
// answer. Call before serving.
func (h *Handler) RestrictSpan(kr KeyRange) { h.span = kr }

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
		writeJSON(w, http.StatusNotFound, errResp{Error: "serve: request tracing is not enabled"})
		return
	}
	q := r.URL.Query()
	if ids := q.Get("id"); ids != "" {
		id, err := strconv.ParseUint(ids, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errResp{Error: "id must be an unsigned integer"})
			return
		}
		rt, ok := h.traces.Get(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errResp{Error: fmt.Sprintf("serve: trace %d is not retained", id)})
			return
		}
		writeJSON(w, http.StatusOK, rt)
		return
	}
	n := 0
	if ns := q.Get("n"); ns != "" {
		var err error
		n, err = strconv.Atoi(ns)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errResp{Error: "n must be a non-negative integer"})
			return
		}
	}
	writeJSON(w, http.StatusOK, h.traces.Recent(n))
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// fail maps the serving layer's typed errors onto HTTP statuses.
func fail(w http.ResponseWriter, err error) {
	var sat *SaturatedError
	var nosuch *NoSuchVersionError
	switch {
	case errors.As(err, &sat):
		secs := int64(sat.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusServiceUnavailable, errResp{
			Error:      err.Error(),
			RetryAfter: sat.RetryAfter.Milliseconds(),
		})
	case errors.As(err, &nosuch):
		writeJSON(w, http.StatusNotFound, errResp{Error: err.Error(), Available: nosuch.Available})
	case errors.Is(err, ErrOutOfDomain), errors.Is(err, ErrBadRegion), errors.Is(err, ErrBadField):
		writeJSON(w, http.StatusBadRequest, errResp{Error: err.Error()})
	case errors.Is(err, ErrCatalogClosed), errors.Is(err, ErrSchedulerClosed):
		writeJSON(w, http.StatusServiceUnavailable, errResp{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request's own deadline expired (or the client went away)
		// before service; 504 tells routers this attempt timed out rather
		// than failed.
		writeJSON(w, http.StatusGatewayTimeout, errResp{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errResp{Error: err.Error()})
	}
}

// snapshotFor resolves the request's version parameter to a handle the
// caller must Close.
func (h *Handler) snapshotFor(r *http.Request) (*Snapshot, error) {
	vs := r.URL.Query().Get("version")
	if vs == "" {
		return h.cat.AcquireLatest()
	}
	step, err := strconv.ParseUint(vs, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: version %q is not a step number", ErrBadRegion, vs)
	}
	return h.cat.Acquire(step)
}

// floatParam parses a finite coordinate: strconv.ParseFloat also accepts
// "NaN" and "Inf", which are never a position in the domain.
func floatParam(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("parameter %q must be finite", name)
	}
	return v, err
}

// keyRangeParams parses the optional klo/khi parameters (inclusive
// Z-order key bounds). Omitting both means the handler's default span
// (full when unrestricted); explicit bounds are honored as given — see
// RestrictSpan for why they must not be intersected with the default.
func (h *Handler) keyRangeParams(r *http.Request) (KeyRange, error) {
	q := r.URL.Query()
	kr := KeyRange{}
	los, his := q.Get("klo"), q.Get("khi")
	if los == "" && his == "" {
		return h.span, nil
	}
	kr = FullKeyRange()
	var err error
	if los != "" {
		if kr.Lo, err = strconv.ParseUint(los, 10, 64); err != nil {
			return kr, fmt.Errorf("klo must be an unsigned integer")
		}
	}
	if his != "" {
		if kr.Hi, err = strconv.ParseUint(his, 10, 64); err != nil {
			return kr, fmt.Errorf("khi must be an unsigned integer")
		}
	}
	return kr, nil
}

func boxParams(r *http.Request) (Box, error) {
	var box Box
	names := [6]string{"x0", "y0", "z0", "x1", "y1", "z1"}
	for d := 0; d < 3; d++ {
		lo, err := floatParam(r, names[d])
		if err != nil {
			return box, err
		}
		hi, err := floatParam(r, names[d+3])
		if err != nil {
			return box, err
		}
		box.Min[d], box.Max[d] = lo, hi
	}
	return box, nil
}

func (h *Handler) versions(w http.ResponseWriter, r *http.Request) {
	steps := h.cat.Steps()
	resp := versionsResp{Versions: steps}
	if len(steps) > 0 {
		resp.Latest = steps[len(steps)-1]
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) point(w http.ResponseWriter, r *http.Request) {
	x, errX := floatParam(r, "x")
	y, errY := floatParam(r, "y")
	z, errZ := floatParam(r, "z")
	if errX != nil || errY != nil || errZ != nil {
		writeJSON(w, http.StatusBadRequest, errResp{Error: "point needs float parameters x, y, z"})
		return
	}
	tc := h.startTrace(w, "point")
	defer tc.Finish()
	s, err := h.snapshotFor(r)
	if err != nil {
		tc.SetError(err)
		fail(w, err)
		return
	}
	defer s.Close()
	val, err := h.sched.DoCtx(r.Context(), tc, "point", func() (any, error) {
		res, err := s.PointTraced(tc, x, y, z)
		if err != nil {
			return nil, err
		}
		cx, cy, cz := res.Code.Center()
		return pointResp{
			Version: res.Step,
			Code:    res.Code.String(),
			Level:   res.Depth,
			Center:  [3]float64{cx, cy, cz},
			Extent:  res.Code.Extent(),
			Data:    res.Data,
		}, nil
	})
	if err != nil {
		tc.SetError(err)
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, val)
}

func (h *Handler) region(w http.ResponseWriter, r *http.Request) {
	box, err := boxParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResp{Error: err.Error()})
		return
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 0 {
			writeJSON(w, http.StatusBadRequest, errResp{Error: "limit must be a non-negative integer"})
			return
		}
	}
	kr, err := h.keyRangeParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResp{Error: err.Error()})
		return
	}
	tc := h.startTrace(w, "region")
	defer tc.Finish()
	s, err := h.snapshotFor(r)
	if err != nil {
		tc.SetError(err)
		fail(w, err)
		return
	}
	defer s.Close()
	val, err := h.sched.DoCtx(r.Context(), tc, "region", func() (any, error) {
		hits, err := s.RegionInTraced(tc, box, kr)
		if err != nil {
			return nil, err
		}
		resp := regionResp{Version: s.Step(), Count: len(hits), Leaves: []regionLeaf{}}
		for _, hit := range hits {
			if limit > 0 && len(resp.Leaves) >= limit {
				resp.Truncated = true
				break
			}
			resp.Leaves = append(resp.Leaves, regionLeaf{Code: hit.Code.String(), Data: hit.Data})
		}
		return resp, nil
	})
	if err != nil {
		tc.SetError(err)
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, val)
}

func (h *Handler) agg(w http.ResponseWriter, r *http.Request) {
	// Bounds are optional for aggregation: omitting all six means the
	// whole domain. Supplying only some of them is still an error.
	box := Box{Max: [3]float64{1, 1, 1}}
	q := r.URL.Query()
	if q.Get("x0") != "" || q.Get("y0") != "" || q.Get("z0") != "" ||
		q.Get("x1") != "" || q.Get("y1") != "" || q.Get("z1") != "" {
		var err error
		box, err = boxParams(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errResp{Error: err.Error()})
			return
		}
	}
	field, err := strconv.Atoi(r.URL.Query().Get("field"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResp{Error: "agg needs an integer field parameter"})
		return
	}
	kr, err := h.keyRangeParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResp{Error: err.Error()})
		return
	}
	tc := h.startTrace(w, "agg")
	defer tc.Finish()
	s, err := h.snapshotFor(r)
	if err != nil {
		tc.SetError(err)
		fail(w, err)
		return
	}
	defer s.Close()
	val, err := h.sched.DoCtx(r.Context(), tc, "agg", func() (any, error) {
		res, err := s.AggregateInTraced(tc, field, box, kr)
		if err != nil {
			return nil, err
		}
		return aggResp{
			Version: res.Step,
			Field:   field,
			Count:   res.Count,
			Sum:     res.Sum,
			Min:     res.Min,
			Max:     res.Max,
			VolSum:  res.VolSum,
		}, nil
	})
	if err != nil {
		tc.SetError(err)
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, val)
}
