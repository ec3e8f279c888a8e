package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

// soakQuery is one entry of the fixed mixed query set the soak replays
// against every version.
type soakQuery struct {
	kind  string
	pt    [3]float64
	box   Box
	field int
}

// soakQuerySet is deterministic: the same seed always yields the same
// mixed point/region/agg workload.
func soakQuerySet() []soakQuery {
	rng := rand.New(rand.NewSource(42))
	var qs []soakQuery
	for i := 0; i < 20; i++ {
		qs = append(qs, soakQuery{kind: "point", pt: [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}})
	}
	for i := 0; i < 15; i++ {
		var box Box
		for d := 0; d < 3; d++ {
			lo := rng.Float64() * 0.8
			box.Min[d] = lo
			box.Max[d] = lo + 0.05 + rng.Float64()*(1-lo-0.05)
		}
		qs = append(qs, soakQuery{kind: "region", box: box})
	}
	for i := 0; i < 5; i++ {
		qs = append(qs, soakQuery{
			kind:  "agg",
			box:   Box{Min: [3]float64{0.1, 0.1, 0.1}, Max: [3]float64{0.3 + rng.Float64()*0.6, 0.9, 0.9}},
			field: i % core.DataWords,
		})
	}
	return qs
}

// runQuery executes one soak query against a snapshot and returns its
// JSON-encodable result.
func runQuery(s *Snapshot, q soakQuery) (any, error) {
	switch q.kind {
	case "point":
		return s.Point(q.pt[0], q.pt[1], q.pt[2])
	case "region":
		return s.Region(q.box)
	default:
		return s.Aggregate(q.field, q.box)
	}
}

// replay runs the whole query set single-threaded and returns the
// JSON-encoded responses — the bit-exact reference a concurrent reader
// must reproduce.
func replay(t testing.TB, s *Snapshot, qs []soakQuery) []byte {
	t.Helper()
	results := make([]any, len(qs))
	for i, q := range qs {
		res, err := runQuery(s, q)
		if err != nil {
			t.Fatalf("replay query %d (%s): %v", i, q.kind, err)
		}
		results[i] = res
	}
	out, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// committedDigest hashes the committed version's full leaf state.
func committedDigest(tree *core.Tree) uint64 {
	h := fnv.New64a()
	tree.ForEachCommittedNode(func(r core.Ref, o *core.Octant) bool {
		if o.IsLeaf() {
			fmt.Fprintf(h, "%d:%v;", o.Code, o.Data)
		}
		return true
	})
	return h.Sum64()
}

// soloDigests runs the identical simulation with no serving layer at all
// and records the committed digest after every step.
func soloDigests(steps, maxLevel int) []uint64 {
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps + 10})
	tree := core.Create(core.Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	defer tree.Delete()
	tree.SetFeatures(d.Feature(1))
	var digests []uint64
	for s := 1; s <= steps; s++ {
		sim.Step(tree, d, s, uint8(maxLevel))
		tree.SetFeatures(d.Feature(s + 1))
		tree.Persist()
		digests = append(digests, committedDigest(tree))
	}
	return digests
}

// TestConcurrentServeSoak is the PR's acceptance demo: a simulation
// writer keeps committing, GC'ing, and attempting compaction while four
// reader goroutines serve >= 1000 mixed point/region/agg queries from
// multiple pinned versions through the scheduler. Every concurrent
// response must be bit-identical to a single-threaded replay of the same
// pinned version, and the simulation's committed state must be
// bit-identical to a solo run with no serving layer attached.
func TestConcurrentServeSoak(t *testing.T) {
	const (
		steps      = 12
		maxLevel   = 4
		readers    = 4
		minQueries = 1000
	)
	qs := soakQuerySet()

	d := sim.NewDroplet(sim.DropletConfig{Steps: steps + 10})
	tree := core.Create(core.Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	reg := telemetry.NewRegistry()
	cat := NewCatalog(tree, Config{Keep: 3, Registry: reg})
	sched := NewScheduler(SchedulerConfig{Workers: 4, QueueDepth: 256, Registry: reg})

	var (
		expected sync.Map // step -> []byte reference replay
		served   sync.Map // step -> true, versions actually queried
		queries  atomic.Int64
		done     atomic.Bool
		wg       sync.WaitGroup
	)

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pick := id
			for !done.Load() {
				catalogSteps := cat.Steps()
				if len(catalogSteps) == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				step := catalogSteps[pick%len(catalogSteps)]
				pick++
				want, ok := expected.Load(step)
				if !ok {
					continue // writer hasn't stored the reference yet
				}
				snap, err := cat.Acquire(step)
				var nosuch *NoSuchVersionError
				if errors.As(err, &nosuch) {
					continue // evicted between Steps and Acquire
				}
				if err != nil {
					t.Errorf("reader %d: Acquire(%d): %v", id, step, err)
					return
				}
				results := make([]any, len(qs))
				bad := false
				for qi, q := range qs {
					for {
						val, err := sched.Do(q.kind, func() (any, error) { return runQuery(snap, q) })
						var sat *SaturatedError
						if errors.As(err, &sat) {
							time.Sleep(sat.RetryAfter / 10)
							continue
						}
						if err != nil {
							t.Errorf("reader %d step %d query %d: %v", id, step, qi, err)
							bad = true
						} else {
							results[qi] = val
						}
						break
					}
					if bad {
						break
					}
					queries.Add(1)
				}
				if !bad {
					got, err := json.Marshal(results)
					if err != nil {
						t.Errorf("reader %d: %v", id, err)
					} else if !bytes.Equal(got, want.([]byte)) {
						t.Errorf("reader %d: step %d responses differ from single-threaded replay", id, step)
					}
					served.Store(step, true)
				}
				snap.Close()
				if bad {
					return
				}
			}
		}(i)
	}

	// The writer: advance the simulation, publish every commit, GC under
	// pins, and verify compaction refuses while versions are pinned.
	tree.SetFeatures(d.Feature(1))
	var liveDigests []uint64
	for s := 1; s <= steps; s++ {
		sim.Step(tree, d, s, maxLevel)
		tree.SetFeatures(d.Feature(s + 1))
		tree.Persist()
		liveDigests = append(liveDigests, committedDigest(tree))
		snap, err := cat.Publish()
		if err != nil {
			t.Fatal(err)
		}
		expected.Store(snap.Step(), replay(t, snap, qs))
		snap.Close()
		if s%2 == 0 {
			tree.GC()
		}
		if s == steps/2 {
			if _, err := tree.Compact(); !errors.Is(err, core.ErrPinned) {
				t.Fatalf("Compact under pins = %v, want ErrPinned", err)
			}
		}
	}

	// Keep serving until the soak quota is met.
	deadline := time.Now().Add(60 * time.Second)
	for queries.Load() < minQueries {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	done.Store(true)
	wg.Wait()
	sched.Close()

	if n := queries.Load(); n < minQueries {
		t.Fatalf("served %d queries, want >= %d", n, minQueries)
	}
	distinct := 0
	served.Range(func(_, _ any) bool { distinct++; return true })
	if distinct < 2 {
		t.Fatalf("served %d distinct pinned versions, want >= 2", distinct)
	}

	// Zero writer interference: the committed history matches a solo run
	// with no serving layer, step for step.
	solo := soloDigests(steps, maxLevel)
	for i := range solo {
		if liveDigests[i] != solo[i] {
			t.Fatalf("step %d committed digest diverged under serving: %x vs solo %x", i+1, liveDigests[i], solo[i])
		}
	}

	// With every handle closed, pins drain and compaction proceeds.
	cat.Close()
	if n := tree.PinnedVersions(); n != 0 {
		t.Fatalf("pins outstanding after close: %d", n)
	}
	if _, err := tree.Compact(); err != nil {
		t.Fatalf("Compact after close: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.requests"] < minQueries {
		t.Fatalf("serve.requests = %d, want >= %d", snap.Counters["serve.requests"], minQueries)
	}
	t.Logf("soak: %d queries over %d versions; published=%d evicted=%d",
		queries.Load(), distinct, snap.Counters["serve.catalog.published"], snap.Counters["serve.catalog.evicted"])
}

// TestInstrumentationBesideReaders runs the writer's instrumentation walks
// (Validate, VersionStats) and one charged walk of the committed version
// while two readers query: points descend a version that has no index,
// and points, regions and aggregates answer from one that does. The walks
// charge no device and each reader charges its own meter, so the device's
// read total is exactly the charged walk's reads plus the modeled reads
// the readers' device_read spans carry. Run with -race.
func TestInstrumentationBesideReaders(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	d := sim.NewDroplet(sim.DropletConfig{Steps: 13})
	tree := core.Create(core.Config{NVBMDevice: dev, DRAMDevice: nvbm.New(nvbm.DRAM, 0), RetainVersions: 2})
	tree.SetFeatures(d.Feature(1))
	for s := 1; s <= 3; s++ {
		sim.Step(tree, d, s, testMaxLevel)
		tree.SetFeatures(d.Feature(s + 1))
		tree.Persist()
	}
	cat, indexed := publish(t, tree, Config{})
	defer cat.Close()
	defer indexed.Close()
	old := tree.RetainedVersions()
	if len(old) == 0 {
		t.Fatal("no retained version to serve without an index")
	}
	bare, err := cat.PublishVersion(old[0].Root, old[0].Step)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()

	qs := soakQuerySet()
	sink := telemetry.NewTraceSink(4096)
	before := dev.Stats()
	var (
		readers sync.WaitGroup
		stop    atomic.Bool
		walked  uint64
	)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				q := qs[(i+r)%len(qs)]
				s, query := indexed, Query{Class: ClassPoint, Point: q.pt}
				switch {
				case q.kind == "point" && i%2 == 0:
					s = bare
				case q.kind == "region":
					query = Query{Class: ClassRegion, Box: q.box, Span: FullKeyRange()}
				case q.kind == "agg":
					query = Query{Class: ClassAgg, Box: q.box, Field: q.field, Span: FullKeyRange()}
				}
				tc := sink.Start(q.kind)
				if _, err := s.Query(tc, query); err != nil {
					t.Errorf("reader %d query %d: %v", r, i, err)
				}
				tc.Finish()
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if err := tree.Validate(); err != nil {
				t.Error(err)
				return
			}
			tree.VersionStats()
			tree.ForEachCommittedNode(func(core.Ref, *core.Octant) bool {
				walked++
				return true
			})
		}
	}()
	readers.Wait()
	stop.Store(true)
	<-done

	per := dev.Latency().ReadNanos(core.RecordSize)
	var readerNs uint64
	traces := sink.Recent(4096)
	for _, rt := range traces {
		for _, sp := range rt.Spans {
			if sp.Name == "device_read" {
				readerNs += sp.ModeledNs
			}
		}
	}
	if len(traces) != 300 || readerNs == 0 || readerNs%per != 0 {
		t.Fatalf("%d traces carry %d modeled ns of reads, want 300 traces of whole %d ns reads", len(traces), readerNs, per)
	}
	got := dev.Stats().Sub(before)
	want := nvbm.Stats{Kind: nvbm.NVBM, Reads: walked + readerNs/per, ReadBytes: (walked + readerNs/per) * core.RecordSize,
		ModeledNs: walked*per + readerNs}
	if got != want {
		t.Fatalf("device charged %+v, want the writer's %d walk reads plus the readers' %d: %+v", got, walked, readerNs/per, want)
	}
}
