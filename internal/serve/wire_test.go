package serve

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"testing"
)

// TestZeroKeyRangeFilters: klo=0&khi=0, or a bare khi=0, is the single key
// 0 — which only the root octant has, so on a refined mesh no leaf
// qualifies — not "no filter". A span that does reach the origin leaf's
// key (its level) returns that leaf alone.
func TestZeroKeyRangeFilters(t *testing.T) {
	tree, _ := buildTree(t, 3)
	cat, s := publish(t, tree, Config{})
	defer cat.Close()
	defer s.Close()
	sched := NewScheduler(SchedulerConfig{})
	defer sched.Close()
	h := NewHandler(cat, sched)

	whole := Box{Max: [3]float64{1, 1, 1}}
	leaves, err := s.Region(whole)
	if err != nil {
		t.Fatal(err)
	}
	inSpan := func(kr KeyRange) (n int) {
		for _, l := range leaves {
			if k := uint64(l.Code); k >= kr.Lo && k <= kr.Hi {
				n++
			}
		}
		return n
	}
	origin := uint64(leaves[0].Code)
	if origin == 0 {
		t.Fatal("fixture degenerate: the mesh was never refined")
	}
	get := func(path string, out any) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), out) != nil {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	const box = "x0=0&y0=0&z0=0&x1=1&y1=1&z1=1"
	for _, tc := range []struct {
		params string
		span   KeyRange
	}{
		{"klo=0&khi=0", KeyRange{}},
		{"khi=0", KeyRange{}},
		{"klo=0&khi=" + strconv.FormatUint(origin, 10), KeyRange{Hi: origin}},
	} {
		want := inSpan(tc.span)
		var rb regionBody
		get("/v1/region?"+box+"&"+tc.params, &rb)
		if rb.Count != want {
			t.Errorf("region %s: %d leaves, want %d of %d", tc.params, rb.Count, want, len(leaves))
		}
		var ab aggBody
		get("/v1/agg?field=0&"+tc.params, &ab)
		if ab.Count != want {
			t.Errorf("agg %s: %d leaves, want %d of %d", tc.params, ab.Count, want, len(leaves))
		}
	}
	if n := inSpan(KeyRange{Hi: origin}); n != 1 {
		t.Fatalf("%d leaves in [0, %d], want the origin leaf alone", n, origin)
	}
}

// FuzzQueryRoundTrip: for every request ParseRequest accepts, parsing the
// encoding of the parsed request gives the same request back, so the
// router's encoder and the server's parser cannot drift apart.
func FuzzQueryRoundTrip(f *testing.F) {
	for _, script := range []string{
		"../../cmd/pmserve/testdata/smoke_queries.json",
		"../../cmd/pmrouter/testdata/smoke_queries.json",
	} {
		raw, err := os.ReadFile(script)
		if err != nil {
			f.Fatal(err)
		}
		var paths []string
		if err := json.Unmarshal(raw, &paths); err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			f.Add(p)
		}
	}
	f.Fuzz(func(t *testing.T, raw string) {
		u, err := url.Parse(raw)
		if err != nil {
			return
		}
		req, err := ParseRequest(u)
		if err != nil {
			return
		}
		path := req.Path()
		u2, err := url.Parse(path)
		if err != nil {
			t.Fatalf("%q encodes as unparsable %q: %v", raw, path, err)
		}
		again, err := ParseRequest(u2)
		if err != nil {
			t.Fatalf("%q encodes as %q, which is refused: %v", raw, path, err)
		}
		if again != req {
			t.Fatalf("%q parses as %+v, its encoding %q as %+v", raw, req, path, again)
		}
	})
}
