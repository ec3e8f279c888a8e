package serve

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
	"pmoctree/internal/tile"
)

const testMaxLevel = 4

// buildTree runs the droplet workload for the given number of committed
// steps and returns the tree (cur == committed after the last Persist).
func buildTree(t testing.TB, steps int) (*core.Tree, *sim.Droplet) {
	t.Helper()
	return buildTreeAt(t, steps, testMaxLevel)
}

// buildTreeAt is buildTree refining the droplet interface to maxLevel.
func buildTreeAt(t testing.TB, steps int, maxLevel uint8) (*core.Tree, *sim.Droplet) {
	t.Helper()
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps + 10})
	tree := core.Create(core.Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	tree.SetFeatures(d.Feature(1))
	for s := 1; s <= steps; s++ {
		sim.Step(tree, d, s, maxLevel)
		tree.SetFeatures(d.Feature(s + 1))
		tree.Persist()
	}
	return tree, d
}

func publish(t testing.TB, tree *core.Tree, cfg Config) (*Catalog, *Snapshot) {
	t.Helper()
	cat := NewCatalog(tree, cfg)
	s, err := cat.Publish()
	if err != nil {
		t.Fatal(err)
	}
	return cat, s
}

// TestPointMatchesTreeDescent: the index-backed point lookup must find
// exactly the leaf the tree's own descent finds, for a grid of points.
func TestPointMatchesTreeDescent(t *testing.T) {
	tree, _ := buildTree(t, 4)
	cat, s := publish(t, tree, Config{})
	defer cat.Close()
	defer s.Close()

	for _, x := range []float64{0, 0.124, 0.35, 0.5, 0.77, 0.999} {
		for _, y := range []float64{0.02, 0.48, 0.93} {
			for _, z := range []float64{0.11, 0.62, 0.88} {
				res, err := s.Point(x, y, z)
				if err != nil {
					t.Fatalf("Point(%v,%v,%v): %v", x, y, z, err)
				}
				cell, _ := CellAt([3]float64{x, y, z})
				_, want := tree.FindLeaf(cell)
				if res.Code != want.Code || res.Data != want.Data {
					t.Fatalf("Point(%v,%v,%v) = %v %v, tree descent found %v %v",
						x, y, z, res.Code, res.Data, want.Code, want.Data)
				}
			}
		}
	}
	if _, err := s.Point(1.0, 0.5, 0.5); !errors.Is(err, ErrOutOfDomain) {
		t.Fatalf("Point outside the domain = %v, want ErrOutOfDomain", err)
	}
}

// TestSnapshotIndexMatchesWriter: right after Persist the working version
// is the committed one, so a snapshot published then carries a copy of
// the writer's leaf index, and the index a walk of the same version builds
// must equal the writer's own, leaf for leaf, in codes and payload — the
// two sides of one tile.Store type.
func TestSnapshotIndexMatchesWriter(t *testing.T) {
	tree, _ := buildTree(t, 4)
	cat, s := publish(t, tree, Config{})
	defer cat.Close()
	defer s.Close()
	if !s.v.built.Load() {
		t.Fatal("a version published right after Persist arrived without the writer's index")
	}
	// The same version pinned without the copy builds its index by a walk.
	pin, err := tree.PinVersion(tree.CommittedRoot(), tree.CommittedStep())
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	walked := newVersion(pin)
	if walked.built.Load() || !walked.ensure() {
		t.Fatal("a version pinned without the writer's index did not build one")
	}

	w := tree.LeafTiles()
	if n := s.LeafCount(); n != w.N() || walked.leaves.N() != w.N() {
		t.Fatalf("snapshot serves %d leaves, a walk indexes %d, the writer's index holds %d", n, walked.leaves.N(), w.N())
	}
	for _, served := range []*tile.Store{&s.v.leaves, &walked.leaves} {
		for i, c := range w.Codes() {
			if served.Codes()[i] != c || served.Load(i) != w.Load(i) {
				t.Fatalf("leaf %d: snapshot %v %v, writer %v %v", i, served.Codes()[i], served.Load(i), c, w.Load(i))
			}
		}
	}
	for i, c := range w.Codes() {
		res, err := s.Point(c.Center())
		if err != nil || res.Code != c || res.Data != w.Load(i) {
			t.Fatalf("Point at leaf %d (%v) = %v %v, %v", i, c, res.Code, res.Data, err)
		}
	}
}

// TestRegionMatchesBruteForce: the Morton-windowed region query returns
// exactly the leaves a full scan with the same overlap test returns.
func TestRegionMatchesBruteForce(t *testing.T) {
	tree, _ := buildTree(t, 4)
	cat, s := publish(t, tree, Config{})
	defer cat.Close()
	defer s.Close()

	var all []LeafHit
	tree.ForEachCommittedNode(func(r core.Ref, o *core.Octant) bool {
		if o.IsLeaf() {
			all = append(all, LeafHit{Code: o.Code, Data: o.Data})
		}
		return true
	})

	rng := rand.New(rand.NewSource(7))
	boxes := []Box{
		{Min: [3]float64{0, 0, 0}, Max: [3]float64{1, 1, 1}},
		{Min: [3]float64{0.4, 0.4, 0.4}, Max: [3]float64{0.6, 0.6, 0.6}},
		{Min: [3]float64{0, 0, 0.9}, Max: [3]float64{1, 1, 1}},
	}
	for i := 0; i < 20; i++ {
		lo := [3]float64{rng.Float64() * 0.9, rng.Float64() * 0.9, rng.Float64() * 0.9}
		var box Box
		for d := 0; d < 3; d++ {
			box.Min[d] = lo[d]
			box.Max[d] = lo[d] + 0.02 + rng.Float64()*(1-lo[d]-0.02)
		}
		boxes = append(boxes, box)
	}
	for _, box := range boxes {
		got, err := s.Region(box)
		if err != nil {
			t.Fatalf("Region(%+v): %v", box, err)
		}
		var want []LeafHit
		for _, leaf := range all {
			if overlaps(leaf.Code, box) {
				want = append(want, leaf)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Region(%+v) = %d leaves, brute force %d", box, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Region(%+v)[%d] = %+v, want %+v", box, i, got[i], want[i])
			}
		}
	}

	if _, err := s.Region(Box{Min: [3]float64{0.5, 0, 0}, Max: [3]float64{0.4, 1, 1}}); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("inverted box = %v, want ErrBadRegion", err)
	}
}

// TestAggregateMatchesBruteForce folds field 0 over regions and checks
// against a direct accumulation over the same leaves.
func TestAggregateMatchesBruteForce(t *testing.T) {
	tree, _ := buildTree(t, 3)
	cat, s := publish(t, tree, Config{})
	defer cat.Close()
	defer s.Close()

	box := Box{Min: [3]float64{0.25, 0.25, 0.25}, Max: [3]float64{0.8, 0.75, 0.9}}
	got, err := s.Aggregate(0, box)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := s.Region(box)
	want := AggResult{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, h := range hits {
		v := h.Data[0]
		want.Count++
		want.Sum += v
		want.Min = math.Min(want.Min, v)
		want.Max = math.Max(want.Max, v)
		ext := h.Code.Extent()
		want.VolSum += v * ext * ext * ext
	}
	if got != want {
		t.Fatalf("Aggregate = %+v, want %+v", got, want)
	}
	if got.Count == 0 {
		t.Fatal("aggregate region hit no leaves; workload too small")
	}
	if _, err := s.Aggregate(core.DataWords, box); !errors.Is(err, ErrBadField) {
		t.Fatalf("field out of range = %v, want ErrBadField", err)
	}
}

// TestAggMergeMatchesBruteForce: folding per-range partials with Merge,
// empty ranges included, equals one brute-force fold over every value.
// Values are small integers so every sum is exact in any order.
func TestAggMergeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fold := func(vs []float64) AggResult {
		var a AggResult
		for i, v := range vs {
			if i == 0 || v < a.Min {
				a.Min = v
			}
			if i == 0 || v > a.Max {
				a.Max = v
			}
			a.Count++
			a.Sum += v
			a.VolSum += v / 8
		}
		return a
	}
	for trial := 0; trial < 200; trial++ {
		vs := make([]float64, rng.Intn(40))
		for i := range vs {
			vs[i] = float64(rng.Intn(1000) - 500)
		}
		var got AggResult
		for rest := vs; ; {
			n := rng.Intn(len(rest) + 1)
			if rng.Intn(3) == 0 {
				n = 0 // an empty partial
			}
			got.Merge(fold(rest[:n]))
			rest = rest[n:]
			if len(rest) == 0 && rng.Intn(2) == 0 {
				break
			}
		}
		if want := fold(vs); got != want {
			t.Fatalf("trial %d: Merge fold = %+v, brute force = %+v", trial, got, want)
		}
	}
}

// TestCatalogWindowEviction: the catalog keeps its configured depth,
// evicts oldest-first, answers Acquire misses with the typed error, and
// releases every pin on Close.
func TestCatalogWindowEviction(t *testing.T) {
	d := sim.NewDroplet(sim.DropletConfig{Steps: 16})
	tree := core.Create(core.Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	reg := telemetry.NewRegistry()
	cat := NewCatalog(tree, Config{Keep: 2, Registry: reg})

	var steps []uint64
	for s := 1; s <= 4; s++ {
		sim.Step(tree, d, s, testMaxLevel)
		tree.Persist()
		snap, err := cat.Publish()
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, snap.Step())
		snap.Close()
	}
	got := cat.Steps()
	if len(got) != 2 || got[0] != steps[2] || got[1] != steps[3] {
		t.Fatalf("catalog window = %v, want [%d %d]", got, steps[2], steps[3])
	}
	var nosuch *NoSuchVersionError
	if _, err := cat.Acquire(steps[0]); !errors.As(err, &nosuch) {
		t.Fatalf("Acquire(evicted) = %v, want NoSuchVersionError", err)
	} else if len(nosuch.Available) != 2 {
		t.Fatalf("NoSuchVersionError.Available = %v, want the window", nosuch.Available)
	}
	latest, err := cat.AcquireLatest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Step() != steps[3] {
		t.Fatalf("latest = %d, want %d", latest.Step(), steps[3])
	}
	// Eviction released the old pins: only the window remains registered.
	if n := tree.PinnedVersions(); n != 2 {
		t.Fatalf("pinned versions = %d, want 2 (the window)", n)
	}

	// Closing the catalog does not strand the outstanding handle...
	cat.Close()
	if got := latest.LeafCount(); got == 0 {
		t.Fatal("snapshot unusable after catalog close")
	}
	if n := tree.PinnedVersions(); n != 1 {
		t.Fatalf("pinned versions after close = %d, want 1 (the live handle)", n)
	}
	// ...and the last handle close releases the last pin.
	latest.Close()
	latest.Close() // double close is a no-op
	if n := tree.PinnedVersions(); n != 0 {
		t.Fatalf("pinned versions after last close = %d, want 0", n)
	}
	if _, err := cat.Publish(); !errors.Is(err, ErrCatalogClosed) {
		t.Fatalf("Publish after Close = %v, want ErrCatalogClosed", err)
	}
}

// TestSchedulerBackpressure: a full admission queue rejects immediately
// with the typed saturation error and the retry hint, and the rejection
// is counted.
func TestSchedulerBackpressure(t *testing.T) {
	reg := telemetry.NewRegistry()
	sched := NewScheduler(SchedulerConfig{
		Workers:    1,
		QueueDepth: 1,
		BatchSize:  1,
		RetryAfter: 123 * time.Millisecond,
		Registry:   reg,
	})
	defer sched.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the single worker
		defer wg.Done()
		_, _ = sched.Do("block", func() (any, error) { close(started); <-gate; return nil, nil })
	}()
	<-started
	wg.Add(1)
	go func() { // sits in the queue
		defer wg.Done()
		_, _ = sched.Do("queued", func() (any, error) { return nil, nil })
	}()
	// Wait until the queued request actually occupies the single slot —
	// only then is a rejection deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges["serve.queue.depth"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	var sat *SaturatedError
	if _, err := sched.Do("overflow", func() (any, error) { return nil, nil }); !errors.As(err, &sat) {
		t.Fatalf("Do on a full queue = %v, want SaturatedError", err)
	}
	if sat.RetryAfter != 123*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 123ms", sat.RetryAfter)
	}
	close(gate)
	wg.Wait()
	if n := reg.Counter("serve.rejected").Value(); n == 0 {
		t.Fatal("serve.rejected counter never incremented")
	}
	if n := reg.Counter("serve.requests").Value(); n < 2 {
		t.Fatalf("serve.requests = %d, want >= 2", n)
	}
	sched.Close()
	if _, err := sched.Do("closed", func() (any, error) { return nil, nil }); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Do after Close = %v, want ErrSchedulerClosed", err)
	}
}

// TestHTTPEndpoints drives the JSON surface end to end against a real
// catalog: versions, point, region (with truncation), agg, and the 400 /
// 404 error paths.
func TestHTTPEndpoints(t *testing.T) {
	tree, _ := buildTree(t, 3)
	reg := telemetry.NewRegistry()
	cat, s0 := publish(t, tree, Config{Registry: reg})
	s0.Close()
	defer cat.Close()
	sched := NewScheduler(SchedulerConfig{Registry: reg})
	defer sched.Close()
	srv := httptest.NewServer(NewHandler(cat, sched))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, buf[:n]
	}

	status, body := get("/v1/versions")
	var vr VersionsBody
	if status != 200 || json.Unmarshal(body, &vr) != nil || len(vr.Versions) != 1 {
		t.Fatalf("/v1/versions -> %d %s", status, body)
	}
	step := vr.Latest

	status, body = get("/v1/point?x=0.5&y=0.5&z=0.82")
	var pr pointBody
	if status != 200 || json.Unmarshal(body, &pr) != nil {
		t.Fatalf("/v1/point -> %d %s", status, body)
	}
	if pr.Version != step || pr.Extent <= 0 {
		t.Fatalf("point response %+v, want version %d", pr, step)
	}

	status, body = get("/v1/region?x0=0.3&y0=0.3&z0=0.3&x1=0.7&y1=0.7&z1=0.9&limit=5")
	var rr regionBody
	if status != 200 || json.Unmarshal(body, &rr) != nil {
		t.Fatalf("/v1/region -> %d %s", status, body)
	}
	if rr.Count <= 5 || !rr.Truncated || len(rr.Leaves) != 5 {
		t.Fatalf("region response count=%d truncated=%v leaves=%d, want truncation at 5", rr.Count, rr.Truncated, len(rr.Leaves))
	}

	status, body = get("/v1/agg?field=0&x0=0&y0=0&z0=0&x1=1&y1=1&z1=1")
	var ar aggBody
	if status != 200 || json.Unmarshal(body, &ar) != nil {
		t.Fatalf("/v1/agg -> %d %s", status, body)
	}
	if ar.Count == 0 || ar.Count != tree.LeafCount() {
		t.Fatalf("agg count = %d, want every leaf (%d)", ar.Count, tree.LeafCount())
	}

	if status, _ := get("/v1/point?x=1.5&y=0&z=0"); status != 400 {
		t.Fatalf("out-of-domain point -> %d, want 400", status)
	}
	if status, body := get("/v1/point?x=0.5&y=0.5&z=0.5&version=99999"); status != 404 {
		t.Fatalf("unknown version -> %d %s, want 404", status, body)
	}
	// The Latest sentinel spelled out means newest, as on the router.
	status, body = get("/v1/point?x=0.5&y=0.5&z=0.82&version=18446744073709551615")
	if status != 200 || json.Unmarshal(body, &pr) != nil || pr.Version != step {
		t.Fatalf("version=Latest -> %d %s, want 200 at step %d", status, body, step)
	}
	if _, err := cat.Acquire(Latest); !errors.As(err, new(*NoSuchVersionError)) {
		t.Fatalf("Acquire(Latest) = %v, want the exact-step miss", err)
	}
	if status, _ := get("/v1/region?x0=0.5&y0=0&z0=0&x1=0.4&y1=1&z1=1"); status != 400 {
		t.Fatalf("inverted region -> %d, want 400", status)
	}

	if n := reg.Counter("serve.requests").Value(); n < 4 {
		t.Fatalf("serve.requests = %d, want the served calls counted", n)
	}
	if st := reg.Histogram("serve.latency_ns").Stats(); st.Count < 4 {
		t.Fatalf("latency histogram count = %d, want >= 4", st.Count)
	}
}
