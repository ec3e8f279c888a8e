package core

import (
	"testing"

	"pmoctree/internal/morton"
)

// churn runs alternating refine/coarsen/persist cycles that fragment the
// arena.
func churn(tr *Tree, rounds int) {
	for i := 0; i < rounds; i++ {
		cx := 0.2 + 0.6*float64(i)/float64(rounds)
		tr.RefineWhere(sphere(cx, 0.5, 0.5, 0.25, 0.2), 4)
		tr.CoarsenWhere(func(c morton.Code) bool {
			return !sphere(cx, 0.5, 0.5, 0.25, 0.4)(c)
		})
		tr.Persist()
	}
}

func TestCompactShrinksHighWater(t *testing.T) {
	tr := Create(Config{DRAMBudgetOctants: 256, Seed: 3})
	churn(tr, 8)
	before := leafSet(tr, tr.CommittedRoot())
	hwBefore := tr.nv.HighWater()

	retired, err := tr.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if retired == nil {
		t.Fatal("no retired device returned")
	}
	hwAfter := tr.nv.HighWater()
	if hwAfter >= hwBefore {
		t.Errorf("compaction did not shrink high water: %d -> %d", hwBefore, hwAfter)
	}
	if int(hwAfter) != tr.nv.LiveCount() {
		t.Errorf("compacted arena not dense: high water %d, live %d", hwAfter, tr.nv.LiveCount())
	}

	// Contents identical.
	after := leafSet(tr, tr.CommittedRoot())
	if !equalLeafSets(before, after) {
		t.Fatal("compaction changed the committed version")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// The tree keeps working and persisting on the new region.
	tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 2 }, 2)
	tr.Persist()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// And a restart from the new device sees the post-compaction state.
	re, err := Restore(Config{NVBMDevice: tr.NVBMDevice()})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRefusesMidStep(t *testing.T) {
	tr := Create(Config{})
	tr.Persist()
	tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 1 }, 1) // uncommitted work
	if _, err := tr.Compact(); err == nil {
		t.Error("compaction accepted an uncommitted working version")
	}
}

func TestCompactPreservesRestorePoint(t *testing.T) {
	tr := Create(Config{Seed: 2})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 3)
	tr.Persist()
	want := leafSet(tr, tr.CommittedRoot())
	step := tr.Step()

	if _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	re, err := Restore(Config{NVBMDevice: tr.NVBMDevice()})
	if err != nil {
		t.Fatal(err)
	}
	if re.Step() != step {
		t.Errorf("restored step %d, want %d", re.Step(), step)
	}
	got := leafSet(re, re.Root())
	if !equalLeafSets(got, want) {
		t.Fatal("restore after compaction lost data")
	}
}

func TestCompactedLayoutIsZOrdered(t *testing.T) {
	tr := Create(Config{Seed: 5})
	churn(tr, 5)
	if _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	// Pre-order allocation: every parent's handle precedes its
	// children's (traversal reads move forward through the region).
	ok := true
	tr.walk(tr.CommittedRoot(), func(r Ref, o *Octant) bool {
		for _, c := range o.Children {
			if !c.IsNil() && c.Handle() <= r.Handle() {
				ok = false
				return false
			}
		}
		return true
	})
	if !ok {
		t.Error("compacted layout not in pre-order")
	}
}
