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
	shard, st, err := MaterializeShard(src, UniformSpans(n)[i], core.Config{NVBMDevice: dev}, nil)
	if err != nil {
		t.Fatalf("materialize %d/%d: %v", i, n, err)
	}
	fx := newFixture(t, fmt.Sprintf("mat%d", i), shard, 2)
	publish(t, fx.cat)
	return fx, dev, st
}

// TestMaterializeShardServesCorrectly: a 2-shard router over materialized
// per-shard arenas answers every query exactly like the source tree — a
// point its leaf, a region its hits, an aggregate the per-span merge —
// and each shard arena is measurably smaller than the full one.
func TestMaterializeShardServesCorrectly(t *testing.T) {
	src, srcDev := buildSourceTree(t, 3, 6)
	const n = 2
	ref := newFixture(t, "ref", src, 2)
	publish(t, ref.cat)

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
	snap, err := ref.cat.Acquire(wantStep)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Point queries across the domain, including both sides of the shard
	// boundary.
	for _, p := range [][3]float64{
		{0.5, 0.5, 0.9}, {0.5, 0.5, 0.6}, {0.1, 0.1, 0.1},
		{0.49, 0.51, 0.5}, {0.51, 0.49, 0.5}, {0.9, 0.9, 0.02},
	} {
		want, err := snap.Point(p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		got, err := matRouter.Point(ctx, Latest, p[0], p[1], p[2])
		if err != nil {
			t.Fatalf("point %v: %v", p, err)
		}
		if got.Leaf != want {
			t.Fatalf("point %v: %+v, want %+v", p, got.Leaf, want)
		}
	}

	// Region and aggregate queries over the shared test boxes.
	for _, box := range testBoxes {
		wantR, err := snap.Region(box)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := matRouter.Region(ctx, Latest, box)
		if err != nil {
			t.Fatalf("region %v: %v", box, err)
		}
		if !reflect.DeepEqual(gotR.Hits, wantR) {
			t.Fatalf("region %v: %d hits, want %d (or hit content differs)", box, len(gotR.Hits), len(wantR))
		}
		gotA, err := matRouter.Aggregate(ctx, Latest, 0, box)
		if err != nil {
			t.Fatalf("agg %v: %v", box, err)
		}
		if wantA := replayAgg(t, snap, matRouter.Map(), 0, box); gotA.Agg != wantA {
			t.Fatalf("agg %v: %+v, want %+v", box, gotA.Agg, wantA)
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

// TestMisorderedShardsRefuseFillers: a materialized shard holds only its
// own span and tiles the rest of the domain with zero-payload fillers.
// When shard 0's span is bound to shard 1's arena (a misordered -images
// list), a query in that span must end in ErrUnavailable, never in the
// fillers' zeros, while the correctly bound span still answers — and the
// misbound shard's health and breaker stay untouched, because refusing to
// answer for keys it does not hold is not a failure.
func TestMisorderedShardsRefuseFillers(t *testing.T) {
	src, _ := buildSourceTree(t, 3, 6)
	fx1, _, _ := materializedFixture(t, src, 1, 2)
	r, err := New(Config{Shards: []ShardConfig{{Primary: fx1.be}, {Primary: fx1.be}}, Seed: 1, Sleep: instantSleep})
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
		return r.Map().OwnerOf(uint64(cell))
	}
	for _, p := range [][3]float64{{0.5, 0.5, 0.1}, {0.1, 0.9, 0.4}, {0.9, 0.1, 0.45}, {0.49, 0.51, 0.25}} {
		if owner(p) != 0 {
			t.Fatalf("point %v is not in shard 0's span", p)
		}
		if ans, err := r.Point(ctx, Latest, p[0], p[1], p[2]); !errors.Is(err, ErrUnavailable) {
			t.Errorf("point %v in the misbound span: %v %+v, want ErrUnavailable", p, err, ans)
		}
		if _, err := fx1.be.Query(ctx, src.CommittedStep(), serve.Query{Class: serve.ClassPoint, Point: p}); !errors.Is(err, serve.ErrNotHeld) {
			t.Errorf("materialized shard 1 asked for %v: %v, want serve.ErrNotHeld", p, err)
		}
	}
	whole := testBoxes[0]
	if ans, err := r.Aggregate(ctx, Latest, 0, whole); !errors.Is(err, ErrUnavailable) {
		t.Errorf("whole-domain aggregate: %v %+v, want ErrUnavailable", err, ans)
	}
	if ans, err := r.Region(ctx, Latest, whole); !errors.Is(err, ErrUnavailable) {
		t.Errorf("whole-domain region: %v, %d hits, want ErrUnavailable", err, len(ans.Hits))
	}

	// Shard 1's own span still answers, from its primary.
	p := [3]float64{0.5, 0.5, 0.9}
	if owner(p) != 1 {
		t.Fatalf("point %v is not in shard 1's span", p)
	}
	ans, err := r.Point(ctx, Latest, p[0], p[1], p[2])
	if err != nil || ans.Degraded || len(ans.ServedBy) != 1 || ans.ServedBy[0] != "shard1" {
		t.Fatalf("point in shard 1's span: %v %+v", err, ans.Envelope)
	}
	for _, info := range r.Shards() {
		if info.Health != "healthy" || info.Breaker != "closed" {
			t.Errorf("shard %d after refusing filler answers: health %s, breaker %s", info.ID, info.Health, info.Breaker)
		}
	}

	// pmserve's surface answers a filler point with 421.
	rec := httptest.NewRecorder()
	serve.NewHandler(fx1.cat, fx1.sched).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/point?x=0.5&y=0.5&z=0.1", nil))
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

	// MaterializeInto commits at the source's step, so a destination
	// already at that step refuses the same step again.
	clean, _ := buildSourceTree(t, 2, 4)
	dst, _, err := MaterializeShard(clean, UniformSpans(2)[1], core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := MaterializeInto(dst, clean, UniformSpans(2)[1], nil); err == nil {
		t.Fatal("materializing a step the destination already committed was accepted")
	}
}
