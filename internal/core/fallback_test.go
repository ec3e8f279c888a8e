package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
)

// fallbackConfig builds the restore config the chaos harness uses: deep
// verification on and two retained fallback versions.
func fallbackConfig(dev *nvbm.Device) Config {
	return Config{
		NVBMDevice:     dev,
		DRAMDevice:     nvbm.New(nvbm.DRAM, 0),
		RetainVersions: 2,
		VerifyRestore:  true,
	}
}

// buildTwoVersions commits two distinct versions and returns the device,
// the tree, and the leaf sets and steps of both.
func buildTwoVersions(t *testing.T, dev *nvbm.Device) (tr *Tree, v1, v2 map[morton.Code][DataWords]float64, step1, step2 uint64) {
	t.Helper()
	tr = Create(fallbackConfig(dev))
	tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.25, 0.15), 3)
	tr.Persist()
	step1 = tr.CommittedStep()
	v1 = leafSet(tr, tr.CommittedRoot())

	tr.RefineWhere(sphere(0.6, 0.6, 0.6, 0.25, 0.15), 3)
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[0] = 7
		return true
	})
	tr.Persist()
	step2 = tr.CommittedStep()
	v2 = leafSet(tr, tr.CommittedRoot())
	if step2 != step1+1 {
		t.Fatalf("steps = %d, %d; want consecutive", step1, step2)
	}
	return tr, v1, v2, step1, step2
}

func sameLeaves(t *testing.T, got, want map[morton.Code][DataWords]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d leaves, want %d", label, len(got), len(want))
	}
	for c, d := range want {
		if got[c] != d {
			t.Fatalf("%s: leaf %v = %v, want %v", label, c, got[c], d)
		}
	}
}

// TestRestoreCleanDeviceNoFallback pins the common case: with nothing
// damaged, RestoreWithReport picks the newest version with zero
// fallbacks, and Restore still behaves like the legacy path.
func TestRestoreCleanDeviceNoFallback(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	_, _, v2, _, step2 := buildTwoVersions(t, dev)

	re, rep, err := RestoreWithReport(fallbackConfig(dev))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallbacks != 0 || rep.ChosenStep != step2 || !rep.Verified {
		t.Errorf("report = %+v, want fallbacks 0, chosen %d, verified", rep, step2)
	}
	if rep.Candidates != 1 {
		t.Errorf("candidates examined = %d, want 1 (newest accepted first)", rep.Candidates)
	}
	sameLeaves(t, leafSet(re, re.CommittedRoot()), v2, "restored")
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackAfterStructuralDamage smashes the code field of the newest
// committed version's root octant (a torn or misdirected store that a CRC
// cannot catch, since the write itself was "legitimate") and requires
// restore to fall back to the older intact version and repair the commit
// record to match.
func TestFallbackAfterStructuralDamage(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	tr, v1, _, step1, _ := buildTwoVersions(t, dev)

	off, _ := tr.nv.SlotRange(tr.CommittedRoot().Handle())
	var garbage [8]byte
	binary.LittleEndian.PutUint64(garbage[:], uint64(morton.Root)^0xFFFF0000)
	dev.WriteAt(off+offCode, garbage[:])

	re, rep, err := RestoreWithReport(fallbackConfig(dev))
	if err != nil {
		t.Fatalf("fallback restore failed: %v", err)
	}
	if rep.Fallbacks != 1 || rep.ChosenStep != step1 {
		t.Fatalf("report = %+v, want 1 fallback to step %d", rep, step1)
	}
	if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0], "code") {
		t.Errorf("rejection reasons = %v, want one code mismatch", rep.Rejected)
	}
	sameLeaves(t, leafSet(re, re.CommittedRoot()), v1, "fallback")
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	// The commit record was repaired: a second restart finds the fallback
	// version as its primary candidate.
	if step, err := CommittedStepOf(dev); err != nil || step != step1 {
		t.Fatalf("commit record = step %d (err %v), want repaired to %d", step, err, step1)
	}
	// The revived tree keeps simulating: its working version number is
	// above every version tag in the arena, so new commits are ordered.
	re.RefineWhere(func(morton.Code) bool { return true }, 1)
	re.Persist()
	if err := re.Validate(); err != nil {
		t.Fatalf("persist after fallback: %v", err)
	}
}

// TestFallbackAfterMediaCorruption rots a bit in an octant reachable only
// from the newest version (media tracking on) and requires the deep
// verify to reject it via CRC and fall back.
func TestFallbackAfterMediaCorruption(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	dev.EnableMediaTracking()
	tr, v1, _, step1, _ := buildTwoVersions(t, dev)

	// Pick a V2-only octant whose cache lines are disjoint from every
	// line V1's octants touch (slots are smaller than lines, so adjacent
	// slots can share a line; collateral damage would reject V1 too).
	v1Marks := markedHandles(tr, Ref(tr.nv.Root(histAddrSlot(int(step1%histSlots)))))
	v1Lines := map[int]bool{}
	for h := range v1Marks {
		off, n := tr.nv.SlotRange(h)
		for line := off / nvbm.LineSize; line <= (off+n-1)/nvbm.LineSize; line++ {
			v1Lines[line] = true
		}
	}
	metaEnd := (tr.nv.DataOffset() - 1) / nvbm.LineSize
	v2Marks := markedHandles(tr, tr.CommittedRoot())
	target, found := pmem.Nil, false
	for h := range v2Marks {
		if v1Marks[h] {
			continue
		}
		off, n := tr.nv.SlotRange(h)
		ok := true
		for line := off / nvbm.LineSize; line <= (off+n-1)/nvbm.LineSize; line++ {
			if v1Lines[line] || line <= metaEnd {
				ok = false
				break
			}
		}
		if ok {
			target, found = h, true
			break
		}
	}
	if !found {
		t.Fatal("no V2-only octant on V1-free lines; enlarge the workload")
	}
	off, _ := tr.nv.SlotRange(target)
	dev.FlipBit(off+3, 5)

	re, rep, err := RestoreWithReport(fallbackConfig(dev))
	if err != nil {
		t.Fatalf("fallback restore failed: %v", err)
	}
	if rep.Fallbacks != 1 || rep.ChosenStep != step1 {
		t.Fatalf("report = %+v, want 1 fallback to step %d", rep, step1)
	}
	if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0], "CRC") {
		t.Errorf("rejection reasons = %v, want one media CRC failure", rep.Rejected)
	}
	sameLeaves(t, leafSet(re, re.CommittedRoot()), v1, "fallback")
}

// TestRestoreFailsWhenMetadataCorrupt rots the arena metadata region
// (allocation bitmap): no candidate can be trusted, and restore must
// error with every rejection reason rather than hand back a tree.
func TestRestoreFailsWhenMetadataCorrupt(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	dev.EnableMediaTracking()
	buildTwoVersions(t, dev)

	dev.FlipBit(100_000, 2) // inside the allocation bitmap
	_, rep, err := RestoreWithReport(fallbackConfig(dev))
	if err == nil {
		t.Fatal("restore accepted a device with corrupt arena metadata")
	}
	if rep.Candidates < 2 {
		t.Errorf("examined %d candidates, want the whole chain", rep.Candidates)
	}
	if !strings.Contains(err.Error(), "metadata") {
		t.Errorf("error %q does not mention metadata", err)
	}
}

// TestRetainVersionsKeepsRingRestorable pins the GC contract: with
// RetainVersions set, superseded ring versions stay live (restorable);
// with the default 0, GC reclaims them.
func TestRetainVersionsKeepsRingRestorable(t *testing.T) {
	run := func(retain int) (oldRootLive bool) {
		dev := nvbm.New(nvbm.NVBM, 0)
		cfg := fallbackConfig(dev)
		cfg.RetainVersions = retain
		tr := Create(cfg)
		tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.25, 0.15), 3)
		tr.Persist()
		oldRoot := tr.CommittedRoot()
		// A churny second step replaces most of the tree, then GC runs
		// inside Persist.
		tr.CoarsenWhere(func(c morton.Code) bool { return true })
		tr.RefineWhere(sphere(0.7, 0.7, 0.7, 0.2, 0.1), 3)
		tr.Persist()
		return tr.nv.Live(oldRoot.Handle())
	}
	if !run(2) {
		t.Error("RetainVersions=2: superseded root was reclaimed; fallback has no target")
	}
	if run(0) {
		t.Error("RetainVersions=0: superseded root survived GC; retention should be off")
	}
}

// markedHandles runs a guarded mark from root into a fresh bitset and
// returns the marked handle set, for tests that reason about version
// reachability.
func markedHandles(tr *Tree, root Ref) map[pmem.Handle]bool {
	bits := make([]uint64, (int(tr.nv.HighWater())+63)/64)
	tr.markFrom(root, bits, true, false, nil)
	set := map[pmem.Handle]bool{}
	for wi, w := range bits {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				set[pmem.Handle(wi*64+b+1)] = true
			}
		}
	}
	return set
}
