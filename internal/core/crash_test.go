package core

import (
	"fmt"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// TestPowerCutTorture cuts power after every possible write count during
// a mutation+persist sequence and verifies that recovery ALWAYS yields a
// previously committed version, intact and validated. This is the
// system's central claim (§3: "our algorithms can guarantee at least one
// version of the octree is consistent while updating its newer version")
// exercised exhaustively at the granularity of individual device writes,
// for the inline commit (depth 0, top-level subtests) and for a persist
// worker two versions deep (the depth=2 group), whose writeback, ring
// push and commit flip land after Persist returns.
func TestPowerCutTorture(t *testing.T) {
	powerCutTorture(t, 0)
	t.Run("depth=2", func(t *testing.T) { powerCutTorture(t, 2) })
}

func powerCutTorture(t *testing.T, depth int) {
	// Dry run to learn how many NVBM writes the doomed phase performs. With
	// a persist worker the count varies by a few writes with its timing, so
	// take the longest of several runs: a cut past a shorter run's last
	// write leaves the committed outcome, which fullVersion covers.
	runs := 1
	if depth > 0 {
		runs = 8
	}
	totalWrites := 0
	for ; runs > 0; runs-- {
		nv := nvbm.New(nvbm.NVBM, 0)
		tree, _ := buildBase(t, nv, depth)
		before := nv.Stats().Writes
		doomedPhase(tree)
		totalWrites = max(totalWrites, int(nv.Stats().Writes-before))
	}
	if totalWrites < 50 {
		t.Fatalf("doomed phase performs only %d writes; torture too weak", totalWrites)
	}

	// The doomed phase's committed outcome, for cut points past the
	// commit store (deterministic, so computed once).
	fullVersion := func() map[morton.Code][DataWords]float64 {
		nv := nvbm.New(nvbm.NVBM, 0)
		tree, _ := buildBase(t, nv, depth)
		doomedPhase(tree)
		return leafSet(tree, tree.CommittedRoot())
	}()

	// Cut at a spread of points covering the whole phase, plus every
	// point in the first 20 writes (where the commit machinery lives).
	points := map[int]bool{}
	for n := 0; n <= 20; n++ {
		points[n] = true
	}
	for n := 0; n <= totalWrites; n += totalWrites/24 + 1 {
		points[n] = true
	}
	points[totalWrites-1] = true
	points[totalWrites] = true

	for n := range points {
		n := n
		t.Run(fmt.Sprintf("cut-after-%d-writes", n), func(t *testing.T) {
			nv := nvbm.New(nvbm.NVBM, 0)
			tree, history := buildBase(t, nv, depth)
			nv.CutPowerAfter(n)
			// The doomed process may die with a panic once its writes
			// stop landing; that is exactly a crash.
			func() {
				defer func() { recover() }()
				doomedPhase(tree)
			}()
			tree.AbortPipeline() // a worker dies with the process
			nv.RestorePower()

			restored, err := Restore(Config{NVBMDevice: nv})
			if err != nil {
				t.Fatalf("restore after cut at %d: %v", n, err)
			}
			if err := restored.Validate(); err != nil {
				t.Fatalf("restored tree invalid after cut at %d: %v", n, err)
			}
			got := leafSet(restored, restored.Root())
			if !matchesAny(got, append(history, fullVersion)) {
				t.Fatalf("cut at %d writes: restored %d leaves match no committed version",
					n, len(got))
			}
			// The restored tree must remain fully usable.
			restored.RefineWhere(func(c morton.Code) bool { return c.Level() < 1 }, 3)
			restored.Persist()
			if err := restored.Validate(); err != nil {
				t.Fatalf("post-recovery persist invalid after cut at %d: %v", n, err)
			}
		})
	}
}

// buildBase creates a tree persisting at the given pipeline depth with two
// durably committed versions and returns the history of committed leaf
// sets.
func buildBase(t *testing.T, nv *nvbm.Device, depth int) (*Tree, []map[morton.Code][DataWords]float64) {
	t.Helper()
	tree := Create(Config{NVBMDevice: nv, DRAMBudgetOctants: 64, Seed: 5, PipelineDepth: depth})
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
// refinement, a solve-style update, and a persist (including its merge,
// commit, GC and retarget), ending in the durability barrier.
func doomedPhase(tree *Tree) {
	tree.RefineWhere(sphere(0.6, 0.6, 0.6, 0.2, 0.15), 4)
	tree.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[1] = 1
		return true
	})
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
// on a smaller tree: every single cut point from 0 to the full phase, for
// the inline commit and for a persist worker two versions deep.
func TestPowerCutDuringEveryEarlyWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive torture skipped in -short")
	}
	for _, depth := range []int{0, 2} {
		// Learn the phase length.
		phase := func(tree *Tree) {
			tree.RefineWhere(func(c morton.Code) bool { return c.Level() < 2 }, 2)
			tree.Persist()
			tree.Flush()
		}
		build := func(nv *nvbm.Device) (*Tree, map[morton.Code][DataWords]float64) {
			tree := Create(Config{NVBMDevice: nv, DRAMBudgetOctants: 16, Seed: 9, PipelineDepth: depth})
			tree.RefineWhere(func(c morton.Code) bool { return c.Level() < 1 }, 1)
			tree.Persist()
			tree.Flush()
			return tree, leafSet(tree, tree.CommittedRoot())
		}
		total := func() int {
			nv := nvbm.New(nvbm.NVBM, 0)
			tree, _ := build(nv)
			before := nv.Stats().Writes
			phase(tree)
			return int(nv.Stats().Writes - before)
		}()

		fullWant := func() map[morton.Code][DataWords]float64 {
			nv := nvbm.New(nvbm.NVBM, 0)
			tree, _ := build(nv)
			phase(tree)
			return leafSet(tree, tree.CommittedRoot())
		}()

		// Exhaustive: power fails after every possible write count.
		for n := 0; n <= total; n++ {
			nv := nvbm.New(nvbm.NVBM, 0)
			tree, committed := build(nv)
			nv.CutPowerAfter(n)
			func() {
				defer func() { recover() }()
				phase(tree)
			}()
			tree.AbortPipeline()
			nv.RestorePower()
			restored, err := Restore(Config{NVBMDevice: nv})
			if err != nil {
				t.Fatalf("depth %d cut %d/%d: restore: %v", depth, n, total, err)
			}
			if err := restored.Validate(); err != nil {
				t.Fatalf("depth %d cut %d/%d: invalid: %v", depth, n, total, err)
			}
			got := leafSet(restored, restored.Root())
			if !equalLeafSets(got, committed) && !equalLeafSets(got, fullWant) {
				t.Fatalf("depth %d cut %d/%d: restored tree is neither the old nor the new version (%d leaves)",
					depth, n, total, len(got))
			}
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
