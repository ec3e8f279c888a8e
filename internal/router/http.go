package router

import (
	"errors"
	"net/http"
	"time"

	"pmoctree/internal/serve"
)

// HTTP front end over a Router. The surface is a superset of the pmserve
// JSON endpoints — same paths, parameters and answer bodies, all defined
// by serve's wire format — so scripts and the loadgen drive a router
// exactly like a single server. Every routed answer additionally carries
// its provenance envelope after the answer's own fields:
// requested_version, served_version, degraded, degraded_reason, and
// served_by. klo/khi filter region and agg answers as on pmserve: each
// shard's part is filtered by the shard's span ∩ the requested span, and a
// shard whose intersection is empty is not asked.
//
//	GET /v1/versions                 -> union of committed steps
//	GET /v1/point?x=&y=&z=[&version=]
//	GET /v1/region?x0=&y0=&z0=&x1=&y1=&z1=[&version=][&limit=][&klo=&khi=]
//	GET /v1/agg?field=[&x0=&y0=&z0=&x1=&y1=&z1=][&version=][&klo=&khi=]
//	GET /v1/shards                   -> per-shard span/health/breaker state

// Handler is the HTTP surface over one Router.
type Handler struct {
	router *Router
	mux    *http.ServeMux
}

// NewHandler mounts the /v1 endpoints.
func NewHandler(r *Router) *Handler {
	h := &Handler{router: r, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/versions", h.versions)
	for _, c := range []serve.Class{serve.ClassPoint, serve.ClassRegion, serve.ClassAgg} {
		h.mux.HandleFunc("/v1/"+c.String(), h.query)
	}
	h.mux.HandleFunc("/v1/shards", h.shards)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// fail maps the router's errors onto HTTP statuses: a request no source
// could serve is a 503 with a one-second retry hint, everything else maps
// as on a single server.
func fail(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnavailable) {
		serve.WriteRetry(w, err, time.Second)
		return
	}
	serve.WriteError(w, err)
}

func (h *Handler) versions(w http.ResponseWriter, r *http.Request) {
	steps, err := h.router.Versions(r.Context())
	if err != nil {
		fail(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, serve.NewVersionsBody(steps))
}

func (h *Handler) shards(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, h.router.Shards())
}

// query answers /v1/point, /v1/region and /v1/agg.
func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	req, err := serve.ParseRequest(r.URL)
	if err != nil {
		fail(w, err)
		return
	}
	env, res, err := h.router.query(r.Context(), req.Version, req.Query)
	if err != nil {
		fail(w, err)
		return
	}
	if env.ServedBy == nil {
		env.ServedBy = []string{}
	}
	serve.WriteJSON(w, http.StatusOK, serve.Body(req, res, &env))
}
