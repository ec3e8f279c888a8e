package router

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"pmoctree/internal/core"
	"pmoctree/internal/serve"
)

// HTTP front end over a Router. The surface is a superset of the pmserve
// JSON endpoints — same paths, same parameters, same core fields — so
// scripts and the loadgen drive a router exactly like a single server.
// Every routed response additionally carries its provenance envelope:
// requested_version, served_version, degraded, degraded_reason, and
// served_by.
//
//	GET /v1/versions                 -> union of committed steps
//	GET /v1/point?x=&y=&z=[&version=]
//	GET /v1/region?x0=&y0=&z0=&x1=&y1=&z1=[&version=][&limit=]
//	GET /v1/agg?field=[&x0=&y0=&z0=&x1=&y1=&z1=][&version=]
//	GET /v1/shards                   -> per-shard span/health/breaker state

type routedErr struct {
	Error      string   `json:"error"`
	RetryAfter int64    `json:"retry_after_ms,omitempty"`
	Available  []uint64 `json:"available,omitempty"`
}

type envelopeJSON struct {
	RequestedVersion uint64   `json:"requested_version"`
	ServedVersion    uint64   `json:"served_version"`
	Degraded         bool     `json:"degraded"`
	DegradedReason   []string `json:"degraded_reason,omitempty"`
	ServedBy         []string `json:"served_by"`
}

type routedPoint struct {
	Version uint64                  `json:"version"`
	Code    string                  `json:"code"`
	Level   uint8                   `json:"level"`
	Center  [3]float64              `json:"center"`
	Extent  float64                 `json:"extent"`
	Data    [core.DataWords]float64 `json:"data"`
	envelopeJSON
}

type routedRegionLeaf struct {
	Code string                  `json:"code"`
	Data [core.DataWords]float64 `json:"data"`
}

type routedRegion struct {
	Version   uint64             `json:"version"`
	Count     int                `json:"count"`
	Truncated bool               `json:"truncated,omitempty"`
	Leaves    []routedRegionLeaf `json:"leaves"`
	envelopeJSON
}

type routedAgg struct {
	Version uint64  `json:"version"`
	Field   int     `json:"field"`
	Count   int     `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	VolSum  float64 `json:"vol_sum"`
	envelopeJSON
}

// Handler is the HTTP surface over one Router.
type Handler struct {
	router *Router
	mux    *http.ServeMux
}

// NewHandler mounts the /v1 endpoints.
func NewHandler(r *Router) *Handler {
	h := &Handler{router: r, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/versions", h.versions)
	h.mux.HandleFunc("/v1/point", h.point)
	h.mux.HandleFunc("/v1/region", h.region)
	h.mux.HandleFunc("/v1/agg", h.agg)
	h.mux.HandleFunc("/v1/shards", h.shards)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail maps the router's error taxonomy onto HTTP statuses.
func fail(w http.ResponseWriter, err error) {
	var sat *serve.SaturatedError
	var nosuch *serve.NoSuchVersionError
	switch {
	case errors.As(err, &sat):
		secs := int64(sat.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusServiceUnavailable, routedErr{
			Error:      err.Error(),
			RetryAfter: sat.RetryAfter.Milliseconds(),
		})
	case errors.As(err, &nosuch):
		writeJSON(w, http.StatusNotFound, routedErr{Error: err.Error(), Available: nosuch.Available})
	case errors.Is(err, serve.ErrOutOfDomain), errors.Is(err, serve.ErrBadRegion), errors.Is(err, serve.ErrBadField):
		writeJSON(w, http.StatusBadRequest, routedErr{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, routedErr{Error: err.Error()})
	case errors.Is(err, ErrUnavailable):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, routedErr{Error: err.Error(), RetryAfter: 1000})
	default:
		writeJSON(w, http.StatusInternalServerError, routedErr{Error: err.Error()})
	}
}

func envJSON(env Envelope) envelopeJSON {
	served := env.ServedBy
	if served == nil {
		served = []string{}
	}
	return envelopeJSON{
		RequestedVersion: env.RequestedStep,
		ServedVersion:    env.ServedStep,
		Degraded:         env.Degraded,
		DegradedReason:   env.Reasons,
		ServedBy:         served,
	}
}

func versionParamHTTP(r *http.Request) (uint64, error) {
	vs := r.URL.Query().Get("version")
	if vs == "" {
		return Latest, nil
	}
	return strconv.ParseUint(vs, 10, 64)
}

// floatParamHTTP parses a finite coordinate: strconv.ParseFloat also
// accepts "NaN" and "Inf", which are never a position in the domain.
func floatParamHTTP(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, errors.New("missing parameter " + name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errors.New("parameter " + name + " must be finite")
	}
	return v, err
}

func boxParamsHTTP(r *http.Request) (serve.Box, error) {
	var box serve.Box
	names := [6]string{"x0", "y0", "z0", "x1", "y1", "z1"}
	for d := 0; d < 3; d++ {
		lo, err := floatParamHTTP(r, names[d])
		if err != nil {
			return box, err
		}
		hi, err := floatParamHTTP(r, names[d+3])
		if err != nil {
			return box, err
		}
		box.Min[d], box.Max[d] = lo, hi
	}
	return box, nil
}

func (h *Handler) versions(w http.ResponseWriter, r *http.Request) {
	steps, err := h.router.Versions(r.Context())
	if err != nil {
		fail(w, err)
		return
	}
	resp := struct {
		Versions []uint64 `json:"versions"`
		Latest   uint64   `json:"latest"`
	}{Versions: steps}
	if len(steps) > 0 {
		resp.Latest = steps[len(steps)-1]
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) shards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.router.Shards())
}

func (h *Handler) point(w http.ResponseWriter, r *http.Request) {
	x, errX := floatParamHTTP(r, "x")
	y, errY := floatParamHTTP(r, "y")
	z, errZ := floatParamHTTP(r, "z")
	if errX != nil || errY != nil || errZ != nil {
		writeJSON(w, http.StatusBadRequest, routedErr{Error: "point needs float parameters x, y, z"})
		return
	}
	version, err := versionParamHTTP(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routedErr{Error: "version must be a step number"})
		return
	}
	ans, err := h.router.Point(r.Context(), version, x, y, z)
	if err != nil {
		fail(w, err)
		return
	}
	cx, cy, cz := ans.Result.Code.Center()
	writeJSON(w, http.StatusOK, routedPoint{
		Version:      ans.Result.Step,
		Code:         ans.Result.Code.String(),
		Level:        ans.Result.Depth,
		Center:       [3]float64{cx, cy, cz},
		Extent:       ans.Result.Code.Extent(),
		Data:         ans.Result.Data,
		envelopeJSON: envJSON(ans.Envelope),
	})
}

func (h *Handler) region(w http.ResponseWriter, r *http.Request) {
	box, err := boxParamsHTTP(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routedErr{Error: err.Error()})
		return
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 0 {
			writeJSON(w, http.StatusBadRequest, routedErr{Error: "limit must be a non-negative integer"})
			return
		}
	}
	version, err := versionParamHTTP(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routedErr{Error: "version must be a step number"})
		return
	}
	ans, err := h.router.Region(r.Context(), version, box)
	if err != nil {
		fail(w, err)
		return
	}
	resp := routedRegion{
		Version:      ans.ServedStep,
		Count:        len(ans.Hits),
		Leaves:       []routedRegionLeaf{},
		envelopeJSON: envJSON(ans.Envelope),
	}
	for _, hit := range ans.Hits {
		if limit > 0 && len(resp.Leaves) >= limit {
			resp.Truncated = true
			break
		}
		resp.Leaves = append(resp.Leaves, routedRegionLeaf{Code: hit.Code.String(), Data: hit.Data})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) agg(w http.ResponseWriter, r *http.Request) {
	box := serve.Box{Max: [3]float64{1, 1, 1}}
	q := r.URL.Query()
	if q.Get("x0") != "" || q.Get("y0") != "" || q.Get("z0") != "" ||
		q.Get("x1") != "" || q.Get("y1") != "" || q.Get("z1") != "" {
		var err error
		box, err = boxParamsHTTP(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, routedErr{Error: err.Error()})
			return
		}
	}
	field, err := strconv.Atoi(q.Get("field"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routedErr{Error: "agg needs an integer field parameter"})
		return
	}
	version, err := versionParamHTTP(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routedErr{Error: "version must be a step number"})
		return
	}
	ans, err := h.router.Aggregate(r.Context(), version, field, box)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, routedAgg{
		Version:      ans.ServedStep,
		Field:        field,
		Count:        ans.Result.Count,
		Sum:          ans.Result.Sum,
		Min:          ans.Result.Min,
		Max:          ans.Result.Max,
		VolSum:       ans.Result.VolSum,
		envelopeJSON: envJSON(ans.Envelope),
	})
}
