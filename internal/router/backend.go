package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pmoctree/internal/serve"
)

// Latest is the version sentinel for "newest published step".
const Latest = serve.Latest

// ErrBackendDown marks hard transport-level failures: connection refused,
// reset, unexpected 5xx, a closed catalog or scheduler. Down errors are
// retryable and feed the breaker and health tracker as hard failures.
var ErrBackendDown = fmt.Errorf("router: backend down")

// Backend is one queryable shard endpoint: a local Catalog+Scheduler in
// tests and in-process deployments, an HTTP shard server otherwise.
// version is an exact committed step or Latest. All methods honor ctx.
type Backend interface {
	Name() string
	Query(ctx context.Context, version uint64, q serve.Query) (serve.Result, error)
	Versions(ctx context.Context) ([]uint64, error)
	Probe(ctx context.Context) error
}

// retryable reports whether the error is transient: backpressure, a dead
// backend, or an attempt timeout. Version misses and bad requests are
// not transient — retrying cannot change the answer.
func retryable(err error) bool {
	var sat *serve.SaturatedError
	return errors.As(err, &sat) ||
		errors.Is(err, ErrBackendDown) ||
		errors.Is(err, context.DeadlineExceeded)
}

// availableVersions extracts the committed steps a backend advertised in
// a version-miss error, so the fallback path can retarget.
func availableVersions(err error) ([]uint64, bool) {
	var nosuch *serve.NoSuchVersionError
	if errors.As(err, &nosuch) {
		return nosuch.Available, true
	}
	return nil, false
}

// observe classifies one call outcome into the health tracker's three
// signals. A version miss, a bad request or a not-held refusal is a
// *successful* answer for health purposes: the shard is alive and
// responsive, it just does not hold what was asked.
func observe(t *HealthTracker, err error) {
	var sat *serve.SaturatedError
	switch {
	case err == nil:
		t.ObserveSuccess()
	case errors.As(err, &sat):
		t.ObserveSaturated()
	case errors.Is(err, ErrBackendDown), errors.Is(err, context.DeadlineExceeded):
		t.ObserveFailure()
	default:
		t.ObserveSuccess()
	}
}

// LocalBackend serves a shard from an in-process Catalog and Scheduler.
type LocalBackend struct {
	name  string
	cat   *serve.Catalog
	sched *serve.Scheduler
}

// NewLocalBackend wraps cat and sched as a Backend.
func NewLocalBackend(name string, cat *serve.Catalog, sched *serve.Scheduler) *LocalBackend {
	return &LocalBackend{name: name, cat: cat, sched: sched}
}

func (b *LocalBackend) Name() string { return b.name }

// Catalog exposes the backing catalog (chaos harnesses publish through it).
func (b *LocalBackend) Catalog() *serve.Catalog { return b.cat }

// wrapLocal maps in-process lifecycle errors onto the transport taxonomy:
// a closed catalog or scheduler is what a dead shard process looks like.
func wrapLocal(err error) error {
	if errors.Is(err, serve.ErrCatalogClosed) || errors.Is(err, serve.ErrSchedulerClosed) {
		return fmt.Errorf("%w: %v", ErrBackendDown, err)
	}
	return err
}

func (b *LocalBackend) Query(ctx context.Context, version uint64, q serve.Query) (serve.Result, error) {
	res, err := serve.Answer(ctx, b.cat, b.sched, nil, version, q)
	return res, wrapLocal(err)
}

func (b *LocalBackend) Versions(ctx context.Context) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	steps := b.cat.Steps()
	if len(steps) == 0 {
		// Distinguish "alive but empty" from down: an empty catalog still
		// answers, with no versions.
		return nil, nil
	}
	return steps, nil
}

func (b *LocalBackend) Probe(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s, err := b.cat.AcquireLatest()
	if err != nil {
		var nosuch *serve.NoSuchVersionError
		if errors.As(err, &nosuch) {
			return nil // alive, just empty
		}
		return wrapLocal(err)
	}
	s.Close()
	return nil
}

// HTTPBackend serves a shard over the pmserve JSON surface, translating
// HTTP statuses back into the typed error taxonomy: 503 + retry_after_ms
// -> serve.SaturatedError, 404 + available -> serve.NoSuchVersionError,
// 421 -> serve.ErrNotHeld, 504 -> context.DeadlineExceeded, transport
// errors and other 5xx -> ErrBackendDown, an answer longer than the body
// cap -> *BodyTooLargeError.
type HTTPBackend struct {
	name   string
	base   string // "http://host:port"
	client *http.Client
}

// maxBody caps the bytes read of one shard answer.
const maxBody = 16 << 20

// BodyTooLargeError reports a shard answer longer than the backend reads.
type BodyTooLargeError struct {
	Backend string
	Limit   int64
}

func (e *BodyTooLargeError) Error() string {
	return fmt.Sprintf("router: backend %s: answer exceeds the %d-byte body cap", e.Backend, e.Limit)
}

// NewHTTPBackend builds a backend over base. client may be nil (a default
// client with no global timeout is used; per-call ctx bounds every
// request).
func NewHTTPBackend(name, base string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPBackend{name: name, base: base, client: client}
}

func (b *HTTPBackend) Name() string { return b.name }

// get issues one request and returns the body of a 200 answer, mapping
// error statuses onto the typed taxonomy.
func (b *HTTPBackend) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		// The caller's own context expiring is not the backend's fault;
		// everything else transport-level is.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", ErrBackendDown, err)
	}
	defer resp.Body.Close()
	// One byte past the cap tells a cut answer from one that fits exactly.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading response: %v", ErrBackendDown, err)
	}
	if len(body) > maxBody {
		return nil, &BodyTooLargeError{Backend: b.name, Limit: maxBody}
	}
	var eb serve.ErrorBody
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusServiceUnavailable:
		_ = json.Unmarshal(body, &eb)
		return nil, &serve.SaturatedError{RetryAfter: time.Duration(eb.RetryAfter) * time.Millisecond}
	case http.StatusNotFound:
		if json.Unmarshal(body, &eb) == nil && (len(eb.Available) > 0 || eb.Error != "") {
			return nil, &serve.NoSuchVersionError{Available: eb.Available}
		}
		return nil, fmt.Errorf("%w: %s returned 404", ErrBackendDown, path)
	case http.StatusMisdirectedRequest:
		return nil, fmt.Errorf("%w: backend %s", serve.ErrNotHeld, b.name)
	case http.StatusGatewayTimeout:
		return nil, context.DeadlineExceeded
	default:
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			if resp.StatusCode < 500 {
				return nil, fmt.Errorf("router: backend %s: %s", b.name, eb.Error)
			}
			return nil, fmt.Errorf("%w: %s", ErrBackendDown, eb.Error)
		}
		return nil, fmt.Errorf("%w: status %d", ErrBackendDown, resp.StatusCode)
	}
}

func (b *HTTPBackend) Query(ctx context.Context, version uint64, q serve.Query) (serve.Result, error) {
	body, err := b.get(ctx, serve.Request{Query: q, Version: version}.Path())
	if err != nil {
		return serve.Result{}, err
	}
	res, err := serve.DecodeResult(q.Class, body)
	if err != nil {
		return serve.Result{}, fmt.Errorf("router: backend %s: %v", b.name, err)
	}
	return res, nil
}

func (b *HTTPBackend) Versions(ctx context.Context) ([]uint64, error) {
	body, err := b.get(ctx, "/v1/versions")
	if err != nil {
		return nil, err
	}
	var vb serve.VersionsBody
	err = json.Unmarshal(body, &vb)
	return vb.Versions, err
}

func (b *HTTPBackend) Probe(ctx context.Context) error {
	_, err := b.Versions(ctx)
	return err
}
