package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
)

// commitDigest hashes the committed version's logical content — octant
// codes and data in Z-order. The digest is layout-independent (no handles,
// no device addresses), so two runs of the same workload agree exactly
// whatever their allocation order.
func commitDigest(tr *Tree) uint64 { return contentDigest(tr, tr.committed) }

// workingDigest hashes the working version. Relocation during Persist
// never changes codes or data, so the working digest taken just before
// Persist equals the committed digest the version will carry — which lets
// crash tests record a version's digest even when the power cut lands
// inside Persist itself.
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

// scriptStep is one deterministic simulation step: refinement driving
// COW and merges, a data sweep, periodic coarsening, and balancing.
func scriptStep(tr *Tree, step int) {
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

// pipelineDepths are the values of the deprecated Config.PipelineDepth the
// depth-parameterised tests run at: 0, and the 2 that benchmark/spec.go
// still sets for flow_projection. Persist ignores the field, so each
// depth-2 subtest holds a Config carrying it to the same results as depth 0.
var pipelineDepths = []int{0, 2}

// pipelineConfig is the tree the TestPipeline* tests step, carrying the
// deprecated PipelineDepth and GroupCommit values a caller may still set.
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

// runScript runs the scripted workload and returns the digest of every
// committed version, index 0 being the initial (empty) commit. Each
// version must be on the device when its Persist returns.
func runScript(t *testing.T, tr *Tree, steps int) []uint64 {
	t.Helper()
	tr.SetFeatures(func(c morton.Code) bool {
		x, _, _ := c.Center()
		return x > 0.5
	})
	history := []uint64{commitDigest(tr)}
	for s := 1; s <= steps; s++ {
		scriptStep(tr, s)
		tr.Persist()
		if rec := tr.nv.Root(rootSlotStep); rec != tr.CommittedStep() || tr.DurableStep() != rec {
			t.Fatalf("step %d: commit record names step %d, committed %d, durable %d",
				s, rec, tr.CommittedStep(), tr.DurableStep())
		}
		history = append(history, commitDigest(tr))
	}
	return history
}

// TestPipelineConfigValidate pins that the deprecated PipelineDepth takes
// no part in validation: only RetainVersions is bounded, whatever depth
// (or GroupCommit) a Config carries, and Create steps a tree at any depth.
func TestPipelineConfigValidate(t *testing.T) {
	cases := []struct {
		depth, retain int
		ok            bool
	}{
		{0, 0, true},
		{0, MaxRetainVersions, true},
		{MaxRetainVersions, 0, true},
		{MaxRetainVersions + 1, 0, true},
		{2, 1, true},
		{3, 1, true},
		{1, MaxRetainVersions, true},
		{0, MaxRetainVersions + 1, false},
		{2, MaxRetainVersions + 1, false},
	}
	for _, c := range cases {
		err := Config{PipelineDepth: c.depth, GroupCommit: c.depth, RetainVersions: c.retain}.Validate()
		if c.ok && err != nil {
			t.Errorf("depth %d retain %d: unexpected %v", c.depth, c.retain, err)
		}
		if !c.ok {
			var re *RetainDepthError
			if !errors.As(err, &re) {
				t.Errorf("depth %d retain %d: want RetainDepthError, got %v", c.depth, c.retain, err)
			}
		}
	}
	cfg := pipelineConfig(nvbm.New(nvbm.NVBM, 0), MaxRetainVersions+1, 3)
	cfg.RetainVersions = MaxRetainVersions
	runScript(t, Create(cfg), 3)
}

// TestPipelineSyncBitIdentical pins the one commit path: every Persist
// commits inline — DurableStep equals CommittedStep after each one, the
// commit record names it, PipelineStats counts no stall, and the persist
// hook fires "writeback", "ring" then "commit" once per Persist. Two runs
// produce bit-identical digest histories and device statistics, and so
// does a run whose Config carries the deprecated PipelineDepth and
// GroupCommit.
func TestPipelineSyncBitIdentical(t *testing.T) {
	const steps = 10
	run := func(depth, group int) ([]uint64, nvbm.Stats) {
		nv := nvbm.New(nvbm.NVBM, 0)
		tr := Create(pipelineConfig(nv, depth, group))
		var stages []string
		tr.SetPersistHook(func(stage string) { stages = append(stages, stage) })
		h := runScript(t, tr, steps)
		if st := tr.PipelineStats(); st.Stalls != 0 {
			t.Fatalf("depth %d: pipeline stats %+v, want no stall", depth, st)
		}
		if len(stages) != 3*steps {
			t.Fatalf("depth %d: hook fired %d times over %d commits: %v", depth, len(stages), steps, stages)
		}
		for i, st := range stages {
			if want := [3]string{"writeback", "ring", "commit"}[i%3]; st != want {
				t.Fatalf("depth %d: hook stage %d is %q, want %q", depth, i, st, want)
			}
		}
		tr.Flush()
		tr.Close()
		return h, nv.Stats()
	}
	h1, s1 := run(0, 0)
	for _, c := range [][2]int{{0, 0}, {3, 2}} {
		h2, s2 := run(c[0], c[1])
		if fmt.Sprint(h1) != fmt.Sprint(h2) {
			t.Fatalf("depth %d group %d: digest history not reproducible:\n%v\n%v", c[0], c[1], h1, h2)
		}
		if s1 != s2 {
			t.Fatalf("depth %d group %d: device stats not reproducible:\n%+v\n%+v", c[0], c[1], s1, s2)
		}
	}
}

// TestPipelineAsyncDigestHistoryEqualsSync holds every PipelineDepth and
// GroupCommit a caller may still set to the depth-0 run: the committed
// digest history is identical, every version is on the device when its
// Persist returns, and after a final Flush the device restores to exactly
// the last version.
func TestPipelineAsyncDigestHistoryEqualsSync(t *testing.T) {
	const steps = 12
	syncHist := runScript(t, Create(pipelineConfig(nvbm.New(nvbm.NVBM, 0), 0, 0)), steps)
	for _, cfg := range []struct{ depth, group int }{
		{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}, {3, 3},
	} {
		t.Run(fmt.Sprintf("depth=%d group=%d", cfg.depth, cfg.group), func(t *testing.T) {
			nv := nvbm.New(nvbm.NVBM, 0)
			tr := Create(pipelineConfig(nv, cfg.depth, cfg.group))
			hist := runScript(t, tr, steps)
			if fmt.Sprint(hist) != fmt.Sprint(syncHist) {
				t.Fatalf("digest history diverged from depth 0:\ndepth 0: %v\ngot:     %v", syncHist, hist)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("tree invalid: %v", err)
			}
			tr.Flush()
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

// TestPipelineFlushBarrier pins the durability semantics: Persist is its
// own barrier — the commit record names each version, root included, when
// Persist returns — and Flush lands what the collection after the commit
// freed, so an image taken after Flush carries an exact allocation bitmap
// while one taken before it still shows the freed slots allocated.
func TestPipelineFlushBarrier(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(pipelineConfig(nv, 3, 1))
	tr.SetFeatures(func(c morton.Code) bool { return true })
	for s := 1; s <= 3; s++ {
		scriptStep(tr, s)
		freed := tr.Stats().GCFreed
		tr.Persist()
		if rec := tr.nv.Root(rootSlotStep); rec != uint64(s) || tr.DurableStep() != uint64(s) {
			t.Fatalf("step %d: commit record names step %d, durable step %d", s, rec, tr.DurableStep())
		}
		if root := Ref(tr.nv.Root(rootSlotAddr)); root != tr.CommittedRoot() {
			t.Fatalf("step %d: commit record root %v != committed root %v", s, root, tr.CommittedRoot())
		}
		if s < 2 {
			continue
		}
		if tr.Stats().GCFreed == freed {
			t.Fatalf("step %d: the collection after the commit freed nothing", s)
		}
		before, err := pmem.OpenArena(nv.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if before.LiveCount() <= tr.nv.LiveCount() {
			t.Fatalf("step %d: the image lists %d live slots before Flush, the arena %d: the frees landed early",
				s, before.LiveCount(), tr.nv.LiveCount())
		}
		tr.Flush()
		after, err := pmem.OpenArena(nv.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if after.LiveCount() != tr.nv.LiveCount() {
			t.Fatalf("step %d: the image lists %d live slots after Flush, the arena %d", s, after.LiveCount(), tr.nv.LiveCount())
		}
	}
	tr.Close()
}

// TestPipelineBackpressure pins that Persist waits on nothing but its own
// commit: at the narrowest window the worker had (depth 1), every commit
// stage fires on the calling goroutine before Persist returns, so no
// Persist can find an earlier version still in flight, and PipelineStats
// counts no stall.
func TestPipelineBackpressure(t *testing.T) {
	tr := Create(pipelineConfig(nvbm.New(nvbm.NVBM, 0), 1, 1))
	persisting := false
	var stages []string
	tr.SetPersistHook(func(stage string) {
		if !persisting {
			t.Errorf("hook stage %q fired outside Persist", stage)
		}
		stages = append(stages, stage)
	})
	tr.SetFeatures(func(c morton.Code) bool { return true })
	for s := 1; s <= 3; s++ {
		scriptStep(tr, s)
		persisting = true
		tr.Persist()
		persisting = false
		if len(stages) != 3*s || stages[len(stages)-1] != "commit" {
			t.Fatalf("step %d: Persist returned after the stages %v", s, stages)
		}
	}
	if st := tr.PipelineStats(); st.Stalls != 0 {
		t.Fatalf("%d stalls with no persist worker", st.Stalls)
	}
	tr.Close()
}

// TestPipelineGroupCommit pins that GroupCommit coalesces nothing: three
// Persists at width 3 make three commit flips, each version durable when
// its Persist returns, and the device names the newest.
func TestPipelineGroupCommit(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(pipelineConfig(nv, 3, 3))
	var commits int
	tr.SetPersistHook(func(stage string) {
		if stage == "commit" {
			commits++
		}
	})
	tr.SetFeatures(func(c morton.Code) bool { return true })
	for s := 1; s <= 3; s++ {
		scriptStep(tr, s)
		tr.Persist()
		if commits != s || tr.DurableStep() != uint64(s) {
			t.Fatalf("step %d: %d commit flips, durable step %d", s, commits, tr.DurableStep())
		}
	}
	tr.Close()
	restored, err := Restore(Config{NVBMDevice: nv})
	if err != nil {
		t.Fatal(err)
	}
	if restored.CommittedStep() != 3 {
		t.Fatalf("restored step %d, want 3", restored.CommittedStep())
	}
}

// TestPipelineCrashAtStages cuts power at each stage of the commit
// sequence of the first Persist, through the persist hook: before the
// bitmap landing ("writeback") and a few writes into it, after the
// fallback-ring push with the record not yet flipped, between the step
// store and the root store, and after the root store. The landing is
// short, so seven writes past its start outlast the root store and the cut
// falls in the next step's mutation. Recovery must land on V(i-1) for
// every cut before the root store and on V(i) for the cuts after it, with an allocator that owns every slot the recovered versions
// reach, and the restored tree must step on. The rows without the
// "inline-" prefix run with the deprecated PipelineDepth and GroupCommit
// set, as the persist worker's rows did.
func TestPipelineCrashAtStages(t *testing.T) {
	stages := []struct {
		name   string
		stage  string
		budget int // device writes allowed after the stage
		depth  int
		group  int
		newer  bool // recovery lands on V(i), not V(i-1)
	}{
		{"before-writeback", "writeback", 0, 3, 1, false},
		{"mid-writeback", "writeback", 3, 3, 1, false},
		{"mid-group-writeback", "writeback", 7, 3, 3, true},
		{"ring-pushed-record-not-flipped", "ring", 0, 3, 1, false},
		{"ring-pushed-record-not-flipped-grouped", "ring", 0, 3, 3, false},
		{"after-commit-flip", "commit", 0, 3, 1, true},
		{"inline-before-writeback", "writeback", 0, 0, 0, false},
		{"inline-ring-pushed-record-not-flipped", "ring", 0, 0, 0, false},
		{"inline-mid-commit-record", "ring", 1, 0, 0, false},
		{"inline-after-commit-flip", "commit", 0, 0, 0, true},
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

			old := commitDigest(tr)
			var newer uint64
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
					scriptStep(tr, s)
					if s == 1 {
						newer = workingDigest(tr)
					}
					tr.Persist()
				}
			}()
			if !crashed {
				t.Fatal("unreachable")
			}
			nv.RestorePower()

			restored, err := Restore(Config{NVBMDevice: nv})
			if err != nil {
				t.Fatalf("restore after %s crash: %v", sc.name, err)
			}
			if err := restored.Validate(); err != nil {
				t.Fatalf("restored tree invalid: %v", err)
			}
			want, which := old, "V(i-1)"
			if sc.newer {
				want, which = newer, "V(i)"
			}
			if got := commitDigest(restored); got != want {
				t.Fatalf("recovery landed on digest %016x, want %s's %016x", got, which, want)
			}
			// The allocator check runs on a copy: it writes, and the
			// restore below must read the crash image.
			restoreChecked(t, Config{NVBMDevice: nv.Clone()})
			restored2, err := Restore(pipelineConfig(nv, 2, 2))
			if err != nil {
				t.Fatal(err)
			}
			scriptStep(restored2, 1)
			restored2.Persist()
			if err := restored2.Validate(); err != nil {
				t.Fatalf("post-recovery persist invalid: %v", err)
			}
			restored2.Close()
		})
	}
}

// TestPipelineWorkerFailureSurfacesOnMutator pins the failure contract: a
// power cut inside a commit raises ErrPowerLost on the mutator from that
// very Persist, so the mutator never sails on believing the version
// reached the device. The committed step does not advance, the commit
// record names the version before, and restore lands on it.
func TestPipelineWorkerFailureSurfacesOnMutator(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(pipelineConfig(nv, 3, 1))
	tr.SetFeatures(func(c morton.Code) bool { return true })
	scriptStep(tr, 1)
	tr.Persist()
	before := commitDigest(tr)
	tr.SetPersistHook(func(stage string) {
		if stage == "writeback" {
			nv.CutPowerAfter(0)
		}
	})
	caught := func() (r any) {
		defer func() { r = recover() }()
		scriptStep(tr, 2)
		tr.Persist()
		return nil
	}()
	if caught != nvbm.ErrPowerLost {
		t.Fatalf("mutator saw %v, want ErrPowerLost from the Persist whose commit lost power", caught)
	}
	nv.RestorePower()
	if cs := tr.CommittedStep(); cs != 1 {
		t.Fatalf("committed step %d after the failed commit, want 1", cs)
	}
	if rec := tr.nv.Root(rootSlotStep); rec != 1 {
		t.Fatalf("commit record names step %d, want 1", rec)
	}
	restored, err := Restore(Config{NVBMDevice: nv})
	if err != nil {
		t.Fatal(err)
	}
	if got := commitDigest(restored); got != before {
		t.Fatalf("restored digest %016x, want step 1's %016x", got, before)
	}
}
