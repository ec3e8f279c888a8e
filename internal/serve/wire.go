package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
)

// The wire format of the query surface, owned here and shared by this
// package's Handler, the router's handler and the router's HTTP backend:
// the request parser and its inverse, the JSON answer bodies and their
// decode back to a Result, and the mapping of errors onto HTTP statuses.
//
//	GET /v1/point?x=&y=&z=[&version=]
//	GET /v1/region?x0=&y0=&z0=&x1=&y1=&z1=[&version=][&limit=][&klo=&khi=]
//	GET /v1/agg?field=[&x0=&y0=&z0=&x1=&y1=&z1=][&version=][&klo=&khi=]  (no bounds = whole domain)
//
// version selects a pinned committed step; omitted means newest. klo/khi
// restrict region and agg answers to leaves whose Z-order key lies in the
// inclusive range — the filter a sharded router scatters with; klo > khi
// is a bad parameter.

// Latest is the version sentinel for "newest published step".
const Latest = math.MaxUint64

// Request is one parsed query request: the Query, the committed step it
// asks for, and how many leaves a region answer lists.
type Request struct {
	Query
	Version uint64 // an exact committed step, or Latest
	Limit   int    // ClassRegion: list at most this many leaves (0 = all)
}

// ParamError is a missing or malformed request parameter; every surface
// answers it with 400 and its message.
type ParamError string

func (e ParamError) Error() string { return string(e) }

var (
	pointNames = [3]string{"x", "y", "z"}
	boxNames   = [6]string{"x0", "y0", "z0", "x1", "y1", "z1"}
)

// ParseRequest parses a /v1/point, /v1/region or /v1/agg request. A region
// or aggregate without klo/khi spans the whole key space; an omitted bound
// reaches to its end of the key space.
func ParseRequest(u *url.URL) (Request, error) {
	p := u.Query()
	req := Request{Version: Latest}
	var err error
	switch u.Path {
	case "/v1/point":
		req.Class = ClassPoint
		for d, name := range pointNames {
			if req.Point[d], err = floatParam(p, name); err != nil {
				return Request{}, ParamError("point needs float parameters x, y, z")
			}
		}
	case "/v1/region":
		req.Class = ClassRegion
		if req.Box, err = boxParams(p); err != nil {
			return Request{}, err
		}
		if ls := p.Get("limit"); ls != "" {
			if req.Limit, err = strconv.Atoi(ls); err != nil || req.Limit < 0 {
				return Request{}, ParamError("limit must be a non-negative integer")
			}
		}
	case "/v1/agg":
		// Bounds are optional for aggregation: omitting all six means the
		// whole domain. Supplying only some of them is still an error.
		req.Class = ClassAgg
		req.Box = Box{Max: [3]float64{1, 1, 1}}
		for _, name := range boxNames {
			if p.Get(name) != "" {
				if req.Box, err = boxParams(p); err != nil {
					return Request{}, err
				}
				break
			}
		}
		if req.Field, err = strconv.Atoi(p.Get("field")); err != nil {
			return Request{}, ParamError("agg needs an integer field parameter")
		}
	default:
		return Request{}, ParamError(fmt.Sprintf("no query endpoint at %q", u.Path))
	}
	if req.Class != ClassPoint {
		if req.Span, err = spanParams(p); err != nil {
			return Request{}, err
		}
	}
	if err = req.Check(); err != nil {
		return Request{}, err
	}
	if vs := p.Get("version"); vs != "" {
		if req.Version, err = strconv.ParseUint(vs, 10, 64); err != nil {
			return Request{}, ParamError("version must be a step number")
		}
	}
	return req, nil
}

// floatParam parses a finite coordinate: strconv.ParseFloat also accepts
// "NaN" and "Inf", which are never a position in the domain.
func floatParam(p url.Values, name string) (float64, error) {
	raw := p.Get(name)
	if raw == "" {
		return 0, ParamError(fmt.Sprintf("missing parameter %q", name))
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, ParamError(err.Error())
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, ParamError(fmt.Sprintf("parameter %q must be finite", name))
	}
	return v, nil
}

func boxParams(p url.Values) (Box, error) {
	var box Box
	for d := 0; d < 3; d++ {
		var err error
		if box.Min[d], err = floatParam(p, boxNames[d]); err != nil {
			return box, err
		}
		if box.Max[d], err = floatParam(p, boxNames[d+3]); err != nil {
			return box, err
		}
	}
	return box, nil
}

func spanParams(p url.Values) (KeyRange, error) {
	los, his := p.Get("klo"), p.Get("khi")
	kr := FullKeyRange()
	var err error
	if los != "" {
		if kr.Lo, err = strconv.ParseUint(los, 10, 64); err != nil {
			return kr, ParamError("klo must be an unsigned integer")
		}
	}
	if his != "" {
		if kr.Hi, err = strconv.ParseUint(his, 10, 64); err != nil {
			return kr, ParamError("khi must be an unsigned integer")
		}
	}
	return kr, nil
}

// Path encodes the request as the path and query string ParseRequest
// parses back to the same Request. Key bounds are sent only when they
// filter.
func (r Request) Path() string {
	p := url.Values{}
	fmtFloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if r.Class == ClassPoint {
		for d, name := range pointNames {
			p.Set(name, fmtFloat(r.Point[d]))
		}
	} else {
		for d := 0; d < 3; d++ {
			p.Set(boxNames[d], fmtFloat(r.Box.Min[d]))
			p.Set(boxNames[d+3], fmtFloat(r.Box.Max[d]))
		}
		if r.Class == ClassAgg {
			p.Set("field", strconv.Itoa(r.Field))
		}
		if r.Class == ClassRegion && r.Limit > 0 {
			p.Set("limit", strconv.Itoa(r.Limit))
		}
		if !r.Span.IsFull() {
			p.Set("klo", strconv.FormatUint(r.Span.Lo, 10))
			p.Set("khi", strconv.FormatUint(r.Span.Hi, 10))
		}
	}
	if r.Version != Latest {
		p.Set("version", strconv.FormatUint(r.Version, 10))
	}
	return "/v1/" + r.Class.String() + "?" + p.Encode()
}

// Envelope is the provenance a router appends to every answer body: what
// was asked, what was served, and whether the two differ. Degraded is true
// exactly when the served version is not the requested (or
// resolved-latest) version — a served-by-replica answer at the right
// version is a failover, not a degradation.
type Envelope struct {
	RequestedStep uint64   `json:"requested_version"`
	ServedStep    uint64   `json:"served_version"`
	Degraded      bool     `json:"degraded"`
	Reasons       []string `json:"degraded_reason,omitempty"`
	ServedBy      []string `json:"served_by"`
}

// The answer bodies. A nil *Envelope adds no fields, so a single server's
// bodies and a router's differ only by the envelope fields after the end.
type pointBody struct {
	Version uint64                  `json:"version"`
	Code    string                  `json:"code"`
	Level   uint8                   `json:"level"`
	Center  [3]float64              `json:"center"`
	Extent  float64                 `json:"extent"`
	Data    [core.DataWords]float64 `json:"data"`
	*Envelope
}

type bodyLeaf struct {
	Code string                  `json:"code"`
	Data [core.DataWords]float64 `json:"data"`
}

type regionBody struct {
	Version   uint64     `json:"version"`
	Count     int        `json:"count"`
	Truncated bool       `json:"truncated,omitempty"`
	Leaves    []bodyLeaf `json:"leaves"`
	*Envelope
}

type aggBody struct {
	Version uint64  `json:"version"`
	Field   int     `json:"field"`
	Count   int     `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	VolSum  float64 `json:"vol_sum"`
	*Envelope
}

// Body returns the JSON answer body for res; env, when non-nil, appends a
// router's provenance fields.
func Body(req Request, res Result, env *Envelope) any {
	switch req.Class {
	case ClassPoint:
		c := res.Leaf.Code
		x, y, z := c.Center()
		return pointBody{
			Version: res.Step, Code: c.String(), Level: c.Level(),
			Center: [3]float64{x, y, z}, Extent: c.Extent(), Data: res.Leaf.Data,
			Envelope: env,
		}
	case ClassRegion:
		n := len(res.Hits)
		if req.Limit > 0 && n > req.Limit {
			n = req.Limit
		}
		b := regionBody{Version: res.Step, Count: len(res.Hits), Truncated: n < len(res.Hits),
			Leaves: make([]bodyLeaf, n), Envelope: env}
		for i, h := range res.Hits[:n] {
			b.Leaves[i] = bodyLeaf{Code: h.Code.String(), Data: h.Data}
		}
		return b
	default:
		a := res.Agg
		return aggBody{
			Version: res.Step, Field: req.Field, Count: a.Count,
			Sum: a.Sum, Min: a.Min, Max: a.Max, VolSum: a.VolSum,
			Envelope: env,
		}
	}
}

// DecodeResult parses an answer body of class c back into its Result.
func DecodeResult(c Class, body []byte) (Result, error) {
	switch c {
	case ClassPoint:
		var b pointBody
		if err := json.Unmarshal(body, &b); err != nil {
			return Result{}, err
		}
		code, err := morton.ParseCode(b.Code)
		if err != nil {
			return Result{}, err
		}
		return Result{Step: b.Version, Leaf: LeafHit{Code: code, Data: b.Data}}, nil
	case ClassRegion:
		var b regionBody
		if err := json.Unmarshal(body, &b); err != nil {
			return Result{}, err
		}
		res := Result{Step: b.Version, Hits: make([]LeafHit, len(b.Leaves))}
		for i, l := range b.Leaves {
			code, err := morton.ParseCode(l.Code)
			if err != nil {
				return Result{}, err
			}
			res.Hits[i] = LeafHit{Code: code, Data: l.Data}
		}
		return res, nil
	default:
		var b aggBody
		if err := json.Unmarshal(body, &b); err != nil {
			return Result{}, err
		}
		agg := AggResult{Count: b.Count, Sum: b.Sum, Min: b.Min, Max: b.Max, VolSum: b.VolSum}
		return Result{Step: b.Version, Agg: agg}, nil
	}
}

// VersionsBody is the /v1/versions answer.
type VersionsBody struct {
	Versions []uint64 `json:"versions"`
	Latest   uint64   `json:"latest"`
}

// NewVersionsBody lists steps, ascending.
func NewVersionsBody(steps []uint64) VersionsBody {
	b := VersionsBody{Versions: steps}
	if len(steps) > 0 {
		b.Latest = steps[len(steps)-1]
	}
	return b
}

// ErrorBody is the JSON body of every error answer.
type ErrorBody struct {
	Error      string   `json:"error"`
	RetryAfter int64    `json:"retry_after_ms,omitempty"`
	Available  []uint64 `json:"available,omitempty"`
}

// WriteJSON writes v as the JSON body of a status answer.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers err with the status its type maps to: 503 with a
// retry hint for saturation, 404 with the available steps for a version
// miss, 400 for a bad parameter, point, box or field, 421 for an answer
// outside the data the arena holds, 503 for a closed catalog or
// scheduler, 504 for an expired request, 500 otherwise.
func WriteError(w http.ResponseWriter, err error) {
	var sat *SaturatedError
	var nosuch *NoSuchVersionError
	var perr ParamError
	switch {
	case errors.As(err, &sat):
		WriteRetry(w, err, sat.RetryAfter)
	case errors.As(err, &nosuch):
		WriteJSON(w, http.StatusNotFound, ErrorBody{Error: err.Error(), Available: nosuch.Available})
	case errors.As(err, &perr), errors.Is(err, ErrOutOfDomain), errors.Is(err, ErrBadRegion), errors.Is(err, ErrBadField):
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrNotHeld):
		WriteJSON(w, http.StatusMisdirectedRequest, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrCatalogClosed), errors.Is(err, ErrSchedulerClosed):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request's own deadline expired (or the client went away)
		// before service; 504 tells routers this attempt timed out rather
		// than failed.
		WriteJSON(w, http.StatusGatewayTimeout, ErrorBody{Error: err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
	}
}

// WriteRetry answers err with 503 and a retry hint: Retry-After in whole
// seconds, at least 1 (clients read "0" as "retry immediately"), and the
// exact hint in the body's retry_after_ms.
func WriteRetry(w http.ResponseWriter, err error, after time.Duration) {
	secs := int64(after.Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error(), RetryAfter: after.Milliseconds()})
}
