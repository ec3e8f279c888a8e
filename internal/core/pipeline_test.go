package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// commitDigest hashes the committed version's logical content — octant
// codes and data in Z-order — through the pending-aware committed walk.
// The digest is layout-independent (no handles, no device addresses), so
// synchronous and pipelined runs of the same workload must agree exactly,
// whatever the writeback timing.
func commitDigest(tr *Tree) uint64 { return contentDigest(tr, tr.committed) }

// workingDigest hashes the working version. Relocation during Persist
// never changes codes or data, so the working digest taken just before
// Persist equals the committed digest the enqueued version will carry —
// which lets crash tests record a version's digest even when the power
// cut lands inside Persist itself, after the enqueue.
func workingDigest(tr *Tree) uint64 { return contentDigest(tr, tr.cur) }

func contentDigest(tr *Tree, root Ref) uint64 {
	h := fnv.New64a()
	var b [8]byte
	tr.walkRO(root, func(_ Ref, o *Octant) bool {
		binary.LittleEndian.PutUint64(b[:], uint64(o.Code))
		h.Write(b[:])
		for _, d := range o.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
			h.Write(b[:])
		}
		return true
	})
	return h.Sum64()
}

// pipelineScript is one deterministic simulation step: refinement driving
// COW and merges, a data sweep, periodic coarsening, and balancing.
func pipelineScript(tr *Tree, step int) {
	f := float64(step)
	tr.RefineWhere(sphere(0.3+0.04*f, 0.4, 0.5, 0.25, 0.2), 4)
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[0] = f
		return true
	})
	if step%3 == 0 {
		tr.CoarsenWhere(sphere(0.8, 0.8, 0.8, 0.15, 0.1))
	}
	tr.Balance()
}

func pipelineConfig(nv *nvbm.Device, depth, group int) Config {
	return Config{
		NVBMDevice:        nv,
		DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
		DRAMBudgetOctants: 48,
		Seed:              7,
		PipelineDepth:     depth,
		GroupCommit:       group,
	}
}

// runPipelineHistory runs the scripted workload and returns the digest of
// every committed version, index 0 being the initial (empty) commit.
func runPipelineHistory(tr *Tree, steps int) []uint64 {
	tr.SetFeatures(func(c morton.Code) bool {
		x, _, _ := c.Center()
		return x > 0.5
	})
	history := []uint64{commitDigest(tr)}
	for s := 1; s <= steps; s++ {
		pipelineScript(tr, s)
		tr.Persist()
		history = append(history, commitDigest(tr))
	}
	return history
}

// TestPipelineConfigValidate pins the backpressure arithmetic: the
// in-flight window may not outrun the fallback ring headroom left after
// version retention.
func TestPipelineConfigValidate(t *testing.T) {
	cases := []struct {
		depth, retain int
		ok            bool
	}{
		{0, 0, true},
		{0, MaxRetainVersions, true},
		{MaxRetainVersions, 0, true},
		{MaxRetainVersions + 1, 0, false},
		{2, 1, true},
		{3, 1, false},
		{1, MaxRetainVersions, false},
	}
	for _, c := range cases {
		err := Config{PipelineDepth: c.depth, RetainVersions: c.retain}.Validate()
		if c.ok && err != nil {
			t.Errorf("depth %d retain %d: unexpected %v", c.depth, c.retain, err)
		}
		if !c.ok {
			var pe *PipelineDepthError
			if !errors.As(err, &pe) {
				t.Errorf("depth %d retain %d: want PipelineDepthError, got %v", c.depth, c.retain, err)
			}
		}
	}
}

// TestPipelineSyncBitIdentical pins depth 0: no worker runs, so every
// Persist commits inline — DurableStep equals CommittedStep after each
// one, PipelineStats counts every commit and no enqueue, and the persist
// hook fires "ring" then "commit" on the mutator, never "writeback".
// Two identical runs produce bit-identical digest histories AND
// bit-identical device statistics.
func TestPipelineSyncBitIdentical(t *testing.T) {
	const steps = 10
	run := func() ([]uint64, nvbm.Stats) {
		nv := nvbm.New(nvbm.NVBM, 0)
		tr := Create(pipelineConfig(nv, 0, 0))
		var stages []string
		tr.SetPersistHook(func(stage string) { stages = append(stages, stage) })
		tr.SetFeatures(func(c morton.Code) bool {
			x, _, _ := c.Center()
			return x > 0.5
		})
		h := []uint64{commitDigest(tr)}
		for s := 1; s <= steps; s++ {
			pipelineScript(tr, s)
			tr.Persist()
			if ds, cs := tr.DurableStep(), tr.CommittedStep(); ds != cs {
				t.Fatalf("step %d: durable step %d != committed step %d at depth 0", s, ds, cs)
			}
			if rec := tr.nv.Root(rootSlotStep); rec != tr.CommittedStep() {
				t.Fatalf("step %d: commit record names step %d, committed %d", s, rec, tr.CommittedStep())
			}
			h = append(h, commitDigest(tr))
		}
		if st := tr.PipelineStats(); st.Committed != steps || st.Enqueued != 0 || st.Pending != 0 {
			t.Fatalf("depth-0 pipeline stats %+v, want %d inline commits and nothing enqueued", st, steps)
		}
		if len(stages) != 2*steps {
			t.Fatalf("hook fired %d times over %d inline commits: %v", len(stages), steps, stages)
		}
		for i, st := range stages {
			if want := [2]string{"ring", "commit"}[i%2]; st != want {
				t.Fatalf("hook stage %d is %q, want %q", i, st, want)
			}
		}
		tr.Flush() // nothing in flight
		tr.Close()
		return h, nv.Stats()
	}
	h1, s1 := run()
	h2, s2 := run()
	if fmt.Sprint(h1) != fmt.Sprint(h2) {
		t.Fatalf("depth-0 digest history not reproducible:\n%v\n%v", h1, h2)
	}
	if s1 != s2 {
		t.Fatalf("depth-0 device stats not reproducible:\n%+v\n%+v", s1, s2)
	}
}

// TestPipelineAsyncDigestHistoryEqualsSync is the core determinism claim:
// for every pipeline depth and group-commit width, the committed-version
// digest history is IDENTICAL to the synchronous run's — the pipeline
// changes when bytes reach the device, never what the versions contain.
// After a final Flush the device restores to exactly the last version.
func TestPipelineAsyncDigestHistoryEqualsSync(t *testing.T) {
	const steps = 12
	syncHist := func() []uint64 {
		tr := Create(pipelineConfig(nvbm.New(nvbm.NVBM, 0), 0, 0))
		return runPipelineHistory(tr, steps)
	}()
	for _, cfg := range []struct{ depth, group int }{
		{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}, {3, 3},
	} {
		t.Run(fmt.Sprintf("depth=%d group=%d", cfg.depth, cfg.group), func(t *testing.T) {
			nv := nvbm.New(nvbm.NVBM, 0)
			tr := Create(pipelineConfig(nv, cfg.depth, cfg.group))
			hist := runPipelineHistory(tr, steps)
			if fmt.Sprint(hist) != fmt.Sprint(syncHist) {
				t.Fatalf("pipelined digest history diverged from synchronous:\nsync:  %v\nasync: %v", syncHist, hist)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("pipelined tree invalid: %v", err)
			}
			st := tr.PipelineStats()
			if st.Enqueued != steps {
				t.Fatalf("enqueued %d versions, stepped %d", st.Enqueued, steps)
			}
			tr.Flush()
			if tr.DurableStep() != tr.CommittedStep() {
				t.Fatalf("after Flush durable step %d != committed step %d", tr.DurableStep(), tr.CommittedStep())
			}
			tr.Close()
			restored, err := Restore(Config{NVBMDevice: nv})
			if err != nil {
				t.Fatalf("restore after flush: %v", err)
			}
			if got := commitDigest(restored); got != hist[len(hist)-1] {
				t.Fatalf("restored digest %016x != last committed %016x", got, hist[len(hist)-1])
			}
		})
	}
}

// TestPipelineFlushBarrier pins the durability semantics: while the
// persist worker is held up, commits are visible to the mutator but NOT
// durable (the on-device commit record still names the old version); the
// Flush barrier makes them durable.
func TestPipelineFlushBarrier(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(pipelineConfig(nv, 3, 1))
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	tr.SetPersistHook(func(stage string) {
		if stage == "writeback" {
			entered <- struct{}{}
			<-block
		}
	})
	tr.SetFeatures(func(c morton.Code) bool { return true })
	for s := 1; s <= 2; s++ {
		pipelineScript(tr, s)
		tr.Persist()
	}
	<-entered // the worker is parked inside the first batch's writeback
	if cs := tr.CommittedStep(); cs != 2 {
		t.Fatalf("host committed step %d, want 2", cs)
	}
	if ds := tr.DurableStep(); ds != 0 {
		t.Fatalf("durable step %d with the worker blocked, want 0", ds)
	}
	if rec := tr.nv.Root(rootSlotStep); rec != 0 {
		t.Fatalf("commit record names step %d with the worker blocked, want 0", rec)
	}
	close(block)
	tr.Flush()
	if ds := tr.DurableStep(); ds != 2 {
		t.Fatalf("durable step %d after Flush, want 2", ds)
	}
	if rec := tr.nv.Root(rootSlotStep); rec != 2 {
		t.Fatalf("commit record names step %d after Flush, want 2", rec)
	}
	if root := Ref(tr.nv.Root(rootSlotAddr)); root != tr.CommittedRoot() {
		t.Fatalf("commit record root %v != committed root %v", root, tr.CommittedRoot())
	}
	tr.Close()
}

// TestPipelineBackpressure pins the stall rule: with the window full (one
// in-flight version at depth 1), the next Persist blocks until the worker
// drains, and the stall is counted.
func TestPipelineBackpressure(t *testing.T) {
	tr := Create(pipelineConfig(nvbm.New(nvbm.NVBM, 0), 1, 1))
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	tr.SetPersistHook(func(stage string) {
		if stage == "writeback" {
			entered <- struct{}{}
			<-block
		}
	})
	tr.SetFeatures(func(c morton.Code) bool { return true })
	pipelineScript(tr, 1)
	tr.Persist()
	<-entered // window is now full: one version in flight, worker parked

	done := make(chan struct{})
	go func() {
		pipelineScript(tr, 2)
		tr.Persist()
		close(done)
	}()
	// Wait for the stall to register (counted before the enqueue parks);
	// Persist must still be blocked at that point.
	deadline := time.After(10 * time.Second)
	for tr.PipelineStats().Stalls == 0 {
		select {
		case <-done:
			t.Fatal("Persist completed without stalling on a full window")
		case <-deadline:
			t.Fatal("Persist never stalled on a full pipeline window")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-done:
		t.Fatal("Persist returned while the worker was still parked")
	default:
	}
	close(block)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Persist still blocked after the worker drained")
	}
	tr.Flush()
	tr.Close()
}

// TestPipelineGroupCommit forces a deterministic group: the first version
// commits alone (the worker grabs it immediately), the next two coalesce
// into one durable commit while the worker is parked. Exactly two commit
// flips for three versions.
func TestPipelineGroupCommit(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(pipelineConfig(nv, 3, 3))
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	first := true
	var commits int
	tr.SetPersistHook(func(stage string) {
		switch stage {
		case "writeback":
			if first {
				first = false
				entered <- struct{}{}
				<-release
			}
		case "commit":
			commits++
		}
	})
	tr.SetFeatures(func(c morton.Code) bool { return true })
	pipelineScript(tr, 1)
	tr.Persist()
	<-entered // batch {1} fixed; queue its slot + room for two more
	pipelineScript(tr, 2)
	tr.Persist()
	pipelineScript(tr, 3)
	tr.Persist()
	close(release)
	tr.Flush()

	st := tr.PipelineStats()
	if st.Enqueued != 3 || st.Committed != 2 || st.Coalesced != 1 {
		t.Fatalf("group commit stats: %+v, want enqueued 3 committed 2 coalesced 1", st)
	}
	if commits != 2 {
		t.Fatalf("%d commit flips for 3 versions under group commit, want 2", commits)
	}
	if ds := tr.DurableStep(); ds != 3 {
		t.Fatalf("durable step %d, want 3", ds)
	}
	tr.Close()
	// The record on the device names the group's newest version.
	restored, err := Restore(Config{NVBMDevice: nv})
	if err != nil {
		t.Fatal(err)
	}
	if restored.CommittedStep() != 3 {
		t.Fatalf("restored step %d, want 3", restored.CommittedStep())
	}
}

// TestPipelineCrashAtStages cuts power at every commit stage — before
// any writeback write, mid-writeback (including mid-group batches), after
// the ring push with the commit record not yet flipped, and after the
// flip — and verifies recovery always lands on some enqueued version's
// digest. The cut budget is consumed by whichever thread writes next, so
// the crash may hit the worker mid-batch or the mutator mid-step: both
// are legitimate power-failure shapes and both must recover. The inline
// rows cut the same two stages of a depth-0 commit, on the mutator.
func TestPipelineCrashAtStages(t *testing.T) {
	stages := []struct {
		name   string
		stage  string
		budget int
		depth  int
		group  int
	}{
		{"before-writeback", "writeback", 0, 3, 1},
		{"mid-writeback", "writeback", 3, 3, 1},
		{"mid-group-writeback", "writeback", 7, 3, 3},
		{"ring-pushed-record-not-flipped", "ring", 0, 3, 1},
		{"ring-pushed-record-not-flipped-grouped", "ring", 0, 3, 3},
		{"after-commit-flip", "commit", 0, 3, 1},
		{"inline-ring-pushed-record-not-flipped", "ring", 0, 0, 0},
		{"inline-mid-commit-record", "ring", 1, 0, 0},
		{"inline-after-commit-flip", "commit", 0, 0, 0},
	}
	for _, sc := range stages {
		t.Run(sc.name, func(t *testing.T) {
			nv := nvbm.New(nvbm.NVBM, 0)
			tr := Create(pipelineConfig(nv, sc.depth, sc.group))
			armed := false
			tr.SetPersistHook(func(stage string) {
				if stage == sc.stage && !armed {
					armed = true
					nv.CutPowerAfter(sc.budget)
				}
			})
			tr.SetFeatures(func(c morton.Code) bool { return true })

			history := map[uint64]bool{commitDigest(tr): true}
			crashed := false
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("the armed cut never fired")
					}
					if r != nvbm.ErrPowerLost {
						panic(r)
					}
					crashed = true
				}()
				for s := 1; s <= 40; s++ {
					pipelineScript(tr, s)
					// The digest of every ENQUEUED version is a legitimate
					// recovery target: it becomes durable if its (group's)
					// record flips before the cut. Record it BEFORE Persist —
					// the cut can land inside Persist after the enqueue (GC
					// and promotion write the device too), and the enqueued
					// version may still commit.
					history[workingDigest(tr)] = true
					tr.Persist()
				}
				tr.Flush()
			}()
			if !crashed {
				t.Fatal("unreachable")
			}
			tr.AbortPipeline()
			nv.RestorePower()

			restored, err := Restore(Config{NVBMDevice: nv})
			if err != nil {
				t.Fatalf("restore after %s crash: %v", sc.name, err)
			}
			if err := restored.Validate(); err != nil {
				t.Fatalf("restored tree invalid: %v", err)
			}
			if got := commitDigest(restored); !history[got] {
				t.Fatalf("recovery landed on digest %016x, which no enqueued version published", got)
			}
			// The allocator check runs on a copy: it writes, and the
			// pipelined restore below must read the crash image.
			restoreChecked(t, Config{NVBMDevice: nv.Clone()})
			// The restored tree is fully usable, pipeline included.
			restored2, err := Restore(pipelineConfig(nv, 2, 2))
			if err != nil {
				t.Fatal(err)
			}
			pipelineScript(restored2, 1)
			restored2.Persist()
			if st := restored2.PipelineStats(); st.Enqueued != 1 {
				t.Fatalf("restore did not start the configured worker: %+v", st)
			}
			restored2.Flush()
			if err := restored2.Validate(); err != nil {
				t.Fatalf("post-recovery pipelined persist invalid: %v", err)
			}
			restored2.Close()
		})
	}
}

// TestPipelineWorkerFailureSurfacesOnMutator pins the failure contract: a
// power cut that kills only the background worker re-raises ErrPowerLost
// on the mutator's next Persist or Flush — the mutator can never sail on
// believing its versions are reaching the device.
func TestPipelineWorkerFailureSurfacesOnMutator(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(pipelineConfig(nv, 3, 1))
	failed := make(chan struct{})
	tr.SetPersistHook(func(stage string) {
		if stage == "writeback" {
			nv.CutPowerAfter(0)
			close(failed)
		}
	})
	tr.SetFeatures(func(c morton.Code) bool { return true })

	caught := func() (r any) {
		defer func() { r = recover() }()
		for s := 1; s <= 20; s++ {
			pipelineScript(tr, s)
			tr.Persist()
		}
		tr.Flush()
		return nil
	}()
	if caught != nvbm.ErrPowerLost {
		t.Fatalf("mutator saw %v, want ErrPowerLost re-raised from the worker", caught)
	}
	<-failed
	// Abort drops what was in flight instead of flushing it: nothing past
	// the durable version reaches the device.
	tr.AbortPipeline()
	nv.RestorePower()
	if ds, cs := tr.DurableStep(), tr.CommittedStep(); ds >= cs {
		t.Fatalf("durable step %d caught up with committed step %d although the worker died", ds, cs)
	}
	if rec := tr.nv.Root(rootSlotStep); rec != tr.DurableStep() {
		t.Fatalf("commit record names step %d, durable step is %d", rec, tr.DurableStep())
	}
}

// TestEvictSubtreeClearsAccess pins the satellite fix: eviction retires
// the victim's access count along with its hot-set membership, so a stale
// pre-eviction count can never skew a later LFA ranking, and dead (non-
// hot) entries never participate in eviction ordering.
func TestEvictSubtreeClearsAccess(t *testing.T) {
	tr := Create(Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0), DRAMBudgetOctants: 256, Seed: 3})
	tr.SetFeatures(func(c morton.Code) bool { return true })
	tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 2 }, 2)
	tr.Persist()
	if len(tr.hot) == 0 {
		t.Fatal("retarget selected no hot subtrees")
	}

	// Give the victim an absurd pre-eviction count; after eviction the
	// entry must not retain it (the relocation walk re-creates it with
	// only its own touches, which is the correct post-eviction signal).
	victim, ok := tr.leastAccessedHot()
	if !ok {
		t.Fatal("no hot subtree to evict")
	}
	const stale = 1 << 40
	tr.access[victim] = stale
	tr.evictSubtree(victim)
	if tr.hot[victim] {
		t.Fatal("eviction left the victim in the hot set")
	}
	if n := tr.access[victim]; n >= stale {
		t.Fatalf("eviction left the stale access count %d in place", n)
	}

	// Eviction ordering ignores dead entries: a huge count on a code that
	// is NOT hot must not displace the true least-accessed hot subtree.
	var want morton.Code
	wantN := ^uint64(0)
	for c := range tr.hot {
		if n := tr.access[c]; n < wantN || (n == wantN && c < want) {
			want, wantN = c, n
		}
	}
	tr.access[victim] = 1 // dead entry: victim is no longer hot
	got, ok := tr.leastAccessedHot()
	if !ok || got != want {
		t.Fatalf("leastAccessedHot returned %v, want %v (dead entries must not participate)", got, want)
	}
}
