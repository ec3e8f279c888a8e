package core

import (
	"fmt"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
)

// TestPowerCutTorture cuts power after every possible write count during
// a mutation+persist sequence and verifies that recovery ALWAYS yields a
// previously committed version, intact and validated. This is the
// system's central claim (§3: "our algorithms can guarantee at least one
// version of the octree is consistent while updating its newer version")
// exercised exhaustively at the granularity of individual device writes.
// It runs with the default RetainVersions 0, where GC frees and reuses the
// most slots before the next landing, and again in a retain=1 group, where
// restore keeps a superseded version whose slots must stay allocated too.
// The depth=2 group repeats both on a Config carrying the deprecated
// PipelineDepth 2, which Persist ignores. Each group spreads its cut
// points over a recorded phase length (recordedPhaseWrites), so the cuts
// keep their offsets while the phase's length moves with the write
// stream, and cuts the phase's measured end as well.
func TestPowerCutTorture(t *testing.T) {
	powerCutTorture(t, 0, 0)
	t.Run("retain=1", func(t *testing.T) { powerCutTorture(t, 0, 1) })
	t.Run("depth=2", func(t *testing.T) {
		powerCutTorture(t, 2, 0)
		t.Run("retain=1", func(t *testing.T) { powerCutTorture(t, 2, 1) })
	})
}

// recordedPhaseWrites is, per pipeline depth and RetainVersions, the
// doomed phase length the group's cut points spread over: at depth 2 the
// length the phase had when a persist worker two versions deep wrote its
// versions back, at depth 0 the length the inline phase had while every
// octant still stored a parent ref. The phase writes at least as much, so
// every spread point is a cut.
var recordedPhaseWrites = map[int]map[int]int{
	0: {0: 3848, 1: 3847},
	2: {0: 3790, 1: 3792},
}

func powerCutTorture(t *testing.T, depth, retain int) {
	// Dry run to learn how many NVBM writes the doomed phase performs. The
	// power-cut countdown counts every write: an armed cut of n leaves the
	// power lost after the phase exactly when the phase made at least n
	// writes, so the counted length must lose power at n and complete at
	// n+1.
	lostAfter := func(n int) bool {
		nv := nvbm.New(nvbm.NVBM, 0)
		tree, _ := buildBase(t, nv, depth, retain)
		nv.CutPowerAfter(n)
		func() {
			defer func() { recover() }()
			doomedPhase(tree)
		}()
		return nv.PowerLost()
	}
	nv := nvbm.New(nvbm.NVBM, 0)
	tree, _ := buildBase(t, nv, depth, retain)
	before := nv.Stats().Writes
	doomedPhase(tree)
	totalWrites := int(nv.Stats().Writes - before)
	if at, past := lostAfter(totalWrites), lostAfter(totalWrites+1); !at || past {
		t.Fatalf("the write counter read %d writes, but a cut there lost power %v and one write later %v",
			totalWrites, at, past)
	}
	if totalWrites < 50 {
		t.Fatalf("doomed phase performs only %d writes; torture too weak", totalWrites)
	}

	// The doomed phase's committed outcome, for cut points past the
	// commit store (deterministic, so computed once).
	fullVersion := func() map[morton.Code][DataWords]float64 {
		nv := nvbm.New(nvbm.NVBM, 0)
		tree, _ := buildBase(t, nv, depth, retain)
		doomedPhase(tree)
		return leafSet(tree, tree.CommittedRoot())
	}()

	// Cut at every point in the first 20 writes and in the last 10 (where
	// the commit machinery lives: the ring push, the commit flip and the
	// bitmap landing end the phase), plus two spreads of points covering
	// the recorded phase length, whose strides differ by one so that their
	// points fall at different offsets. The 10 points before the recorded
	// length are cut too, as they were while it was the measured one.
	span := recordedPhaseWrites[depth][retain]
	if span > totalWrites {
		t.Fatalf("the phase makes %d writes, fewer than the %d the cut points spread over", totalWrites, span)
	}
	points := map[int]bool{}
	for n := 0; n <= 20; n++ {
		points[n] = true
	}
	for _, end := range []int{span, totalWrites} {
		for n := end - 10; n <= end; n++ {
			points[n] = true
		}
	}
	for _, stride := range []int{span / 24, span/24 + 1} {
		for n := 0; n <= span; n += stride {
			points[n] = true
		}
	}

	for n := range points {
		n := n
		t.Run(fmt.Sprintf("cut-after-%d-writes", n), func(t *testing.T) {
			nv := nvbm.New(nvbm.NVBM, 0)
			tree, history := buildBase(t, nv, depth, retain)
			nv.CutPowerAfter(n)
			// The doomed process may die with a panic once its writes
			// stop landing; that is exactly a crash.
			func() {
				defer func() { recover() }()
				doomedPhase(tree)
			}()
			nv.RestorePower()

			got := restoreChecked(t, Config{NVBMDevice: nv, RetainVersions: retain})
			if !matchesAny(got, append(history, fullVersion)) {
				t.Fatalf("cut at %d writes: restored %d leaves match no committed version",
					n, len(got))
			}
		})
	}
}

// TestLostLandingFailsCommit wears out the allocator metadata (header,
// root table and bitmap lines) before a persist: the commit's bitmap
// landing is dropped, and the read-back fails the commit with
// pmem.ErrStoreLost before the root store. Once the lines take stores
// again, restore lands on the version before, with every slot it and the
// retained version reach allocated.
func TestLostLandingFailsCommit(t *testing.T) {
	for _, depth := range pipelineDepths {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			nv := nvbm.New(nvbm.NVBM, 0)
			tree, history := buildBase(t, nv, depth, 1)
			// Rewrite the metadata in place up to a wear limit no record
			// line reaches during the phase, so only metadata stores drop.
			meta := tree.nv.DataOffset()
			limit := nv.WearMax(meta, nv.Size()) + 64
			img := make([]byte, meta)
			nv.ReadAt(0, img)
			for range limit {
				nv.WriteAt(0, img)
			}
			nv.SetWearLimit(limit)
			func() {
				defer func() {
					if r := recover(); r != pmem.ErrStoreLost {
						t.Fatalf("persist over worn-out lines: recovered %v, want pmem.ErrStoreLost", r)
					}
				}()
				doomedPhase(tree)
			}()
			nv.SetWearLimit(0)
			got := restoreChecked(t, Config{NVBMDevice: nv, RetainVersions: 1})
			if !equalLeafSets(got, history[len(history)-1]) {
				t.Fatalf("restored %d leaves, want the last committed version", len(got))
			}
		})
	}
}

// restoreChecked restores the tree cfg names after a power cut on
// fault-free media and holds it to what every cut must leave:
//   - the commit record's version restores without a fallback (a fallback
//     means a persist point landed after the root store);
//   - every slot the committed and retained versions reach is allocated in
//     the reopened arena (an allocation landed too late would be handed
//     out again over a durable octant);
//   - the tree validates, and keeps doing so through one more refine,
//     persist and flush.
//
// It returns the restored version's leaf set.
func restoreChecked(t *testing.T, cfg Config) map[morton.Code][DataWords]float64 {
	t.Helper()
	restored, rep, err := RestoreWithReport(cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rep.Fallbacks != 0 {
		t.Fatalf("restore fell back past the commit record's version: %v", rep.Rejected)
	}
	if n := popcount(andNot(reachableSlots(restored), restored.nv.LiveWords())); n != 0 {
		t.Fatalf("%d slots the committed and retained versions reach are free in the reopened arena", n)
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored tree invalid: %v", err)
	}
	got := leafSet(restored, restored.Root())
	restored.RefineWhere(func(c morton.Code) bool { return c.Level() < 1 }, 3)
	restored.Persist()
	restored.Flush()
	if err := restored.Validate(); err != nil {
		t.Fatalf("post-recovery persist invalid: %v", err)
	}
	return got
}

// buildBase creates a tree carrying the given (deprecated) pipeline depth
// and retaining retain superseded versions, with two committed versions,
// and returns the history of committed leaf sets.
func buildBase(t *testing.T, nv *nvbm.Device, depth, retain int) (*Tree, []map[morton.Code][DataWords]float64) {
	t.Helper()
	tree := Create(Config{NVBMDevice: nv, DRAMBudgetOctants: 64, Seed: 5, PipelineDepth: depth, RetainVersions: retain})
	var history []map[morton.Code][DataWords]float64
	history = append(history, leafSet(tree, tree.CommittedRoot()))

	tree.RefineWhere(sphere(0.4, 0.4, 0.4, 0.25, 0.2), 3)
	tree.Persist()
	history = append(history, leafSet(tree, tree.CommittedRoot()))

	tree.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[0] = float64(c.Level())
		return true
	})
	tree.Persist()
	tree.Flush()
	history = append(history, leafSet(tree, tree.CommittedRoot()))
	return tree, history
}

// doomedPhase is the mutation whose writes the torture interrupts: a
// refinement, two solve-style updates, and a persist (including its
// merge, commit, GC and retarget), ending in the bitmap landing of Flush.
// The second update rewrites in place what the first copied, and keeps
// the phase at least as long as recordedPhaseWrites.
func doomedPhase(tree *Tree) {
	tree.RefineWhere(sphere(0.6, 0.6, 0.6, 0.2, 0.15), 4)
	for w := 1; w <= 2; w++ {
		tree.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
			d[w] = 1
			return true
		})
	}
	tree.Persist()
	tree.Flush()
}

// matchesAny reports whether got equals one of the candidate committed
// versions.
func matchesAny(got map[morton.Code][DataWords]float64, candidates []map[morton.Code][DataWords]float64) bool {
	for _, want := range candidates {
		if equalLeafSets(got, want) {
			return true
		}
	}
	return false
}

// TestPowerCutDuringEveryEarlyWrite runs the dense version of the torture
// on a smaller tree: every single cut point from 0 to the full phase, at
// each of pipelineDepths, with RetainVersions 0 and 1, on the arena Create
// built and on one Compact rewrote the tree into before the phase.
func TestPowerCutDuringEveryEarlyWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive torture skipped in -short")
	}
	for _, depth := range pipelineDepths {
		for _, retain := range []int{0, 1} {
			for _, compacted := range []bool{false, true} {
				arena := "created"
				if compacted {
					arena = "compacted"
				}
				t.Run(fmt.Sprintf("depth=%d,retain=%d,%s", depth, retain, arena), func(t *testing.T) {
					denseTorture(t, depth, retain, compacted)
				})
			}
		}
	}
}

func denseTorture(t *testing.T, depth, retain int, compacted bool) {
	// Learn the phase length. The payload sweep keeps the phase at least
	// as long as it was while every octant still stored a parent ref, so
	// every cut the group names falls inside it.
	phase := func(tree *Tree) {
		tree.RefineWhere(func(c morton.Code) bool { return c.Level() < 2 }, 2)
		tree.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
			d[0] = 1
			return true
		})
		tree.Persist()
		tree.Flush()
	}
	// build returns the tree and its device, a fresh one if Compact
	// moved the tree.
	build := func() (*Tree, *nvbm.Device, map[morton.Code][DataWords]float64) {
		tree := Create(Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0), DRAMBudgetOctants: 16, Seed: 9, PipelineDepth: depth, RetainVersions: retain})
		tree.RefineWhere(func(c morton.Code) bool { return c.Level() < 1 }, 1)
		tree.Persist()
		if compacted {
			if _, err := tree.Compact(); err != nil {
				t.Fatal(err)
			}
		} else {
			tree.Flush()
		}
		return tree, tree.cfg.NVBMDevice, leafSet(tree, tree.CommittedRoot())
	}
	total := func() int {
		tree, nv, _ := build()
		before := nv.Stats().Writes
		phase(tree)
		return int(nv.Stats().Writes - before)
	}()
	recorded := 97 // the phase length while octants stored a parent ref
	if retain == 1 && compacted {
		recorded = 95
	}
	if total < recorded {
		t.Fatalf("the phase makes %d writes, fewer than the %d cut points the group names", total, recorded)
	}

	fullWant := func() map[morton.Code][DataWords]float64 {
		tree, _, _ := build()
		phase(tree)
		return leafSet(tree, tree.CommittedRoot())
	}()

	// Exhaustive: power fails after every possible write count.
	for n := 0; n <= total; n++ {
		tree, nv, committed := build()
		nv.CutPowerAfter(n)
		func() {
			defer func() { recover() }()
			phase(tree)
		}()
		nv.RestorePower()
		var got map[morton.Code][DataWords]float64
		if !t.Run(fmt.Sprintf("cut-%d", n), func(t *testing.T) {
			got = restoreChecked(t, Config{NVBMDevice: nv, RetainVersions: retain})
		}) {
			t.FailNow()
		}
		if !equalLeafSets(got, committed) && !equalLeafSets(got, fullWant) {
			t.Fatalf("cut %d/%d: restored tree is neither the old nor the new version (%d leaves)",
				n, total, len(got))
		}
	}
}

func equalLeafSets(a, b map[morton.Code][DataWords]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for c, d := range a {
		if b[c] != d {
			return false
		}
	}
	return true
}

// TestLongRunNoLeak drives many persist cycles and checks the NVBM arena
// never accumulates unreclaimed octants: after each step's GC, live slots
// must stay within a small factor of the live version's octant count
// (two versions can transiently coexist, never more).
func TestLongRunNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run test skipped in -short")
	}
	tr := Create(Config{DRAMBudgetOctants: 512, Seed: 6})
	for s := 0; s < 40; s++ {
		cx := 0.15 + 0.6*float64(s)/40
		tr.RefineWhere(sphere(cx, 0.5, 0.5, 0.2, 0.15), 4)
		tr.CoarsenWhere(func(c morton.Code) bool {
			return !sphere(cx, 0.5, 0.5, 0.2, 0.35)(c)
		})
		tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
			if sphere(cx, 0.5, 0.5, 0.2, 0.15)(c) {
				d[0] = cx
				return true
			}
			return false
		})
		tr.Persist()
		vs := tr.VersionStats()
		live := tr.nv.LiveCount()
		if float64(live) > float64(vs.CurOctants)*1.2+16 {
			t.Fatalf("step %d: %d live NVBM slots for %d octants — leaking",
				s, live, vs.CurOctants)
		}
		if s%10 == 9 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
	}
	// The arena's high-water mark is bounded too: freed slots recycle.
	if hw := tr.nv.HighWater(); float64(hw) > float64(tr.nv.LiveCount())*6 {
		t.Errorf("high water %d vs %d live: free slots not recycling", hw, tr.nv.LiveCount())
	}
}
