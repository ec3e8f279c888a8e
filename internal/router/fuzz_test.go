package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"pmoctree/internal/serve"
)

var fuzzEndpoints = [3]string{"/v1/point", "/v1/region", "/v1/agg"}

// FuzzRouterParams: any raw query string on a query endpoint, through the
// router's HTTP surface over two materialized local shards, never panics
// and answers no 5xx but 503; wherever pmserve's handler over the source
// tree refuses the request with 400, the router refuses it with the same
// 400 and the same body. The corpus is seeded from the pmrouter smoke
// script.
func FuzzRouterParams(f *testing.F) {
	raw, err := os.ReadFile("../../cmd/pmrouter/testdata/smoke_queries.json")
	if err != nil {
		f.Fatal(err)
	}
	var paths []string
	if err := json.Unmarshal(raw, &paths); err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		path, query, _ := strings.Cut(p, "?")
		for i, ep := range fuzzEndpoints {
			if path == ep {
				f.Add(uint8(i), query)
			}
		}
	}

	fl := buildFleet(f, 2, 2, 2)
	r, err := New(Config{Shards: fl.primaries(), Sleep: instantSleep})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(r.Close)
	routed, pmserve := NewHandler(r), serve.NewHandler(fl.ref.cat, fl.ref.sched)
	do := func(h http.Handler, ep, query string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", ep, nil)
		req.URL = &url.URL{Path: ep, RawQuery: query}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, query string) {
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		got := do(routed, ep, query)
		if got.Code >= 500 && got.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s?%s: router answered %d %s", ep, query, got.Code, got.Body)
		}
		want := do(pmserve, ep, query)
		if want.Code == http.StatusBadRequest &&
			(got.Code != http.StatusBadRequest || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes())) {
			t.Fatalf("%s?%s: router %d %s, pmserve 400 %s", ep, query, got.Code, got.Body, want.Body)
		}
	})
}
