package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/serve"
	"pmoctree/internal/sim"
)

// buildSourceTree runs the deterministic droplet workload and returns the
// committed tree with its NVBM device — the "full arena" a deployment
// would materialize shards from.
func buildSourceTree(t testing.TB, steps int, maxLevel uint8) (*core.Tree, *nvbm.Device) {
	t.Helper()
	d := sim.NewDroplet(sim.DropletConfig{Steps: 16})
	dev := nvbm.New(nvbm.NVBM, 0)
	tree := core.Create(core.Config{NVBMDevice: dev})
	for s := 1; s <= steps; s++ {
		sim.Step(tree, d, s, maxLevel)
		tree.Persist()
	}
	return tree, dev
}

// materializedFixture builds shard i/N's materialized backend from src.
func materializedFixture(t testing.TB, src *core.Tree, i, n int) (*shardFixture, *nvbm.Device, MaterializeStats) {
	t.Helper()
	dev := nvbm.New(nvbm.NVBM, 0)
	span := UniformSpans(n)[i]
	shard, st, err := MaterializeShard(src, span, core.Config{NVBMDevice: dev}, nil)
	if err != nil {
		t.Fatalf("materialize %d/%d: %v", i, n, err)
	}
	cat := serve.NewCatalog(shard, serve.Config{Keep: 2})
	snap, err := cat.Publish()
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	sched := serve.NewScheduler(serve.SchedulerConfig{})
	fx := &shardFixture{be: NewLocalBackend(fmt.Sprintf("mat%d", i), cat, sched), cat: cat, sched: sched}
	t.Cleanup(func() {
		sched.Close()
		cat.Close()
	})
	return fx, dev, st
}

// TestMaterializeShardServesCorrectly: a 2-shard router over materialized
// per-shard arenas answers every query exactly like a router over full
// copies, and each shard arena is measurably smaller than the full one.
func TestMaterializeShardServesCorrectly(t *testing.T) {
	src, srcDev := buildSourceTree(t, 3, 6)
	const n = 2

	// Reference: both shards serve the full copy (the -inproc model).
	fullCat := serve.NewCatalog(src, serve.Config{Keep: 2})
	snap, err := fullCat.Publish()
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	fullSched := serve.NewScheduler(serve.SchedulerConfig{})
	defer fullSched.Close()
	defer fullCat.Close()
	fullShards := make([]ShardConfig, n)
	for i := range fullShards {
		fullShards[i] = ShardConfig{Primary: NewLocalBackend(fmt.Sprintf("full%d", i), fullCat, fullSched)}
	}
	refRouter, err := New(Config{Shards: fullShards, Seed: 1, Sleep: instantSleep})
	if err != nil {
		t.Fatal(err)
	}
	defer refRouter.Close()

	matShards := make([]ShardConfig, n)
	var devs []*nvbm.Device
	for i := 0; i < n; i++ {
		fx, dev, st := materializedFixture(t, src, i, n)
		matShards[i] = ShardConfig{Primary: fx.be}
		devs = append(devs, dev)
		if st.Kept == 0 || st.Fillers == 0 {
			t.Fatalf("shard %d: kept=%d fillers=%d, want both nonzero", i, st.Kept, st.Fillers)
		}
		t.Logf("shard %d: kept %d leaves, %d fillers, %d nodes, %d device bytes (full: %d)",
			i, st.Kept, st.Fillers, st.Nodes, dev.Size(), srcDev.Size())
	}
	matRouter, err := New(Config{Shards: matShards, Seed: 1, Sleep: instantSleep})
	if err != nil {
		t.Fatal(err)
	}
	defer matRouter.Close()

	ctx := context.Background()

	// Version consistency: the materialized shards advertise exactly the
	// source's committed step.
	wantStep := src.CommittedStep()
	vs, err := matRouter.Versions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != wantStep {
		t.Fatalf("materialized versions = %v, want [%d]", vs, wantStep)
	}

	// Point queries across the domain, including both sides of the shard
	// boundary.
	for _, p := range [][3]float64{
		{0.5, 0.5, 0.9}, {0.5, 0.5, 0.6}, {0.1, 0.1, 0.1},
		{0.49, 0.51, 0.5}, {0.51, 0.49, 0.5}, {0.9, 0.9, 0.02},
	} {
		want, err := refRouter.Point(ctx, Latest, p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		got, err := matRouter.Point(ctx, Latest, p[0], p[1], p[2])
		if err != nil {
			t.Fatalf("point %v: %v", p, err)
		}
		if got.Leaf != want.Leaf {
			t.Fatalf("point %v: %+v, want %+v", p, got.Leaf, want.Leaf)
		}
	}

	// Region and aggregate queries over the shared test boxes.
	for _, box := range testBoxes {
		wantR, err := refRouter.Region(ctx, Latest, box)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := matRouter.Region(ctx, Latest, box)
		if err != nil {
			t.Fatalf("region %v: %v", box, err)
		}
		if !reflect.DeepEqual(gotR.Hits, wantR.Hits) {
			t.Fatalf("region %v: %d hits, want %d (or hit content differs)", box, len(gotR.Hits), len(wantR.Hits))
		}
		wantA, err := refRouter.Aggregate(ctx, Latest, 0, box)
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := matRouter.Aggregate(ctx, Latest, 0, box)
		if err != nil {
			t.Fatalf("agg %v: %v", box, err)
		}
		if gotA.Agg != wantA.Agg {
			t.Fatalf("agg %v: %+v, want %+v", box, gotA.Agg, wantA.Agg)
		}
	}

	// Footprint: each per-shard arena must be strictly smaller than the
	// full arena it was carved from.
	for i, dev := range devs {
		if dev.Size() >= srcDev.Size() {
			t.Fatalf("shard %d device is %d bytes, full arena %d — no footprint win", i, dev.Size(), srcDev.Size())
		}
	}
}

// TestTakeoverRefusesMaterializedFillers: a materialized shard holds only
// its own span and tiles the rest of the domain with zero-payload fillers.
// With the other shard down and no replica, peer takeover must not answer
// the dead span from those fillers: every query touching it is
// unavailable, while the peer's own span still answers, and the peer's
// health and breaker stay untouched.
func TestTakeoverRefusesMaterializedFillers(t *testing.T) {
	src, _ := buildSourceTree(t, 3, 6)
	fx0, _, _ := materializedFixture(t, src, 0, 2)
	dead := &gatedBackend{Backend: fx0.be}
	dead.down.Store(true)
	r, err := New(Config{Shards: []ShardConfig{{Primary: fx0.be}, {Primary: dead}}, Seed: 1, Sleep: instantSleep})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	owner := func(p [3]float64) int {
		cell, err := serve.CellAt(p)
		if err != nil {
			t.Fatal(err)
		}
		return r.Map().OwnerOf(cell.Key())
	}
	for _, p := range [][3]float64{{0.5, 0.5, 0.9}, {0.1, 0.9, 0.6}, {0.9, 0.1, 0.55}, {0.51, 0.49, 0.75}} {
		if owner(p) != 1 {
			t.Fatalf("point %v is not in shard 1's span", p)
		}
		if ans, err := r.Point(ctx, Latest, p[0], p[1], p[2]); !errors.Is(err, ErrUnavailable) {
			t.Errorf("point %v in the dead span: %v %+v, want ErrUnavailable", p, err, ans)
		}
		if _, err := fx0.be.Query(ctx, src.CommittedStep(), serve.Query{Class: serve.ClassPoint, Point: p}); !errors.Is(err, serve.ErrNotHeld) {
			t.Errorf("materialized shard 0 asked for %v: %v, want serve.ErrNotHeld", p, err)
		}
	}
	whole := testBoxes[0]
	if ans, err := r.Aggregate(ctx, Latest, 0, whole); !errors.Is(err, ErrUnavailable) {
		t.Errorf("whole-domain aggregate: %v %+v, want ErrUnavailable", err, ans)
	}
	if ans, err := r.Region(ctx, Latest, whole); !errors.Is(err, ErrUnavailable) {
		t.Errorf("whole-domain region: %v, %d hits, want ErrUnavailable", err, len(ans.Hits))
	}

	// Shard 0's own span still answers, from its primary.
	p := [3]float64{0.5, 0.5, 0.1}
	if owner(p) != 0 {
		t.Fatalf("point %v is not in shard 0's span", p)
	}
	ans, err := r.Point(ctx, Latest, p[0], p[1], p[2])
	if err != nil || ans.Degraded || len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard0" {
		t.Fatalf("point in shard 0's span: %v %+v", err, ans.Envelope)
	}
	if info := r.Shards()[0]; info.Health != "healthy" || info.Breaker != "closed" {
		t.Errorf("peer after refusing takeovers: health %s, breaker %s", info.Health, info.Breaker)
	}

	// pmserve's surface answers a filler point with 421.
	rec := httptest.NewRecorder()
	serve.NewHandler(fx0.cat, fx0.sched).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/point?x=0.5&y=0.5&z=0.9", nil))
	if rec.Code != http.StatusMisdirectedRequest {
		t.Errorf("filler point over HTTP: %d %s, want 421", rec.Code, rec.Body)
	}
}

// TestMaterializeShardErrors: a dirty source and a source with no commits
// are refused; the typed state error surfaces.
func TestMaterializeShardErrors(t *testing.T) {
	fresh := core.Create(core.Config{})
	if _, _, err := MaterializeShard(fresh, UniformSpans(2)[0], core.Config{}, nil); err == nil {
		t.Fatal("uncommitted source accepted")
	}
	src, _ := buildSourceTree(t, 1, 4)
	src.UpdateLeaves(func(_ morton.Code, d *[core.DataWords]float64) bool {
		d[0] = 42
		return true
	})
	if _, _, err := MaterializeShard(src, UniformSpans(2)[0], core.Config{}, nil); err == nil {
		t.Fatal("dirty source accepted")
	}
}
