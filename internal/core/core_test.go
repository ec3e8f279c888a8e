package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// sphere returns a refinement predicate that is true when the octant's
// REGION intersects a spherical interface band — the shape of the droplet
// workload. Region (not center) tests are essential: a coarse octant whose
// center misses the band must still refine when the band crosses it.
func sphere(cx, cy, cz, rad, band float64) func(morton.Code) bool {
	return func(c morton.Code) bool {
		x, y, z := c.Center()
		h := c.Extent() / 2
		// Distance from the sphere center to the octant box.
		minD2, maxD2 := 0.0, 0.0
		for _, p := range [3][2]float64{{x, cx}, {y, cy}, {z, cz}} {
			lo, hi := p[0]-h, p[0]+h
			d := 0.0
			if p[1] < lo {
				d = lo - p[1]
			} else if p[1] > hi {
				d = p[1] - hi
			}
			minD2 += d * d
			far := p[1] - lo
			if f := hi - p[1]; f > far {
				far = f
			}
			maxD2 += far * far
		}
		lo, hi := rad-band, rad+band
		if lo < 0 {
			lo = 0
		}
		return minD2 <= hi*hi && maxD2 >= lo*lo
	}
}

// leafSet collects code->data for all leaves reachable from root r.
func leafSet(t *Tree, r Ref) map[morton.Code][DataWords]float64 {
	out := map[morton.Code][DataWords]float64{}
	t.setAccounting(false)
	t.walk(r, func(_ Ref, o *Octant) bool {
		if o.IsLeaf() {
			out[o.Code] = o.Data
		}
		return true
	})
	t.setAccounting(true)
	return out
}

func TestCreateInitialState(t *testing.T) {
	tr := Create(Config{})
	if tr.Root() != tr.CommittedRoot() {
		t.Error("fresh tree roots differ")
	}
	if tr.Root().InDRAM() {
		t.Error("committed root in DRAM")
	}
	if tr.LeafCount() != 1 || tr.NodeCount() != 1 {
		t.Errorf("counts: %d leaves, %d nodes", tr.LeafCount(), tr.NodeCount())
	}
	if tr.Step() != 1 {
		t.Errorf("Step = %d", tr.Step())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRefineWhereGrowsTree(t *testing.T) {
	tr := Create(Config{})
	n := tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	if n != 9 { // root + 8 children split
		t.Errorf("refines = %d, want 9", n)
	}
	if tr.LeafCount() != 64 {
		t.Errorf("leaves = %d, want 64", tr.LeafCount())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedVersionImmutableUnderRefine(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 1)
	tr.Persist()
	before := leafSet(tr, tr.CommittedRoot())

	// Heavy mutation of the working version.
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 4)
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[0] = 42
		return true
	})
	tr.CoarsenWhere(func(c morton.Code) bool {
		x, _, _ := c.Center()
		return x > 0.9
	})

	after := leafSet(tr, tr.CommittedRoot())
	if len(before) != len(after) {
		t.Fatalf("committed leaf count changed: %d -> %d", len(before), len(after))
	}
	for c, d := range before {
		if after[c] != d {
			t.Fatalf("committed leaf %v data changed: %v -> %v", c, d, after[c])
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistCommitsWorkingVersion(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(sphere(0.3, 0.3, 0.3, 0.2, 0.15), 3)
	want := leafSet(t2Tree(tr), tr.Root())
	tr.Persist()
	if tr.Root() != tr.CommittedRoot() {
		t.Error("roots differ after persist")
	}
	got := leafSet(tr, tr.CommittedRoot())
	if len(got) != len(want) {
		t.Fatalf("committed leaves = %d, want %d", len(got), len(want))
	}
	for c, d := range want {
		if got[c] != d {
			t.Fatalf("leaf %v lost in persist", c)
		}
	}
	// After persist the whole version is NVBM-closed.
	tr.setAccounting(false)
	tr.walk(tr.Root(), func(r Ref, o *Octant) bool {
		if r.InDRAM() {
			t.Fatalf("octant %v still in DRAM after persist", o.Code)
		}
		return true
	})
	tr.setAccounting(true)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// t2Tree is an identity helper to keep leafSet call sites uniform.
func t2Tree(t *Tree) *Tree { return t }

func TestPersistGCReclaimsOldVersion(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	tr.Persist()
	liveAfterFirst := tr.nv.LiveCount()

	// Replace a whole region of the mesh, then persist: the superseded
	// octants must be reclaimed.
	tr.CoarsenWhere(func(c morton.Code) bool { return true }) // collapse to root... cascades
	tr.Persist()
	if tr.nv.LiveCount() >= liveAfterFirst {
		t.Errorf("GC reclaimed nothing: %d -> %d live", liveAfterFirst, tr.nv.LiveCount())
	}
	if tr.LeafCount() != 1 {
		t.Errorf("leaves after full coarsen = %d", tr.LeafCount())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapRatioLifecycle(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 4)
	tr.Persist()

	// Immediately after persist: full sharing.
	vs := tr.VersionStats()
	if vs.OverlapRatio != 1.0 {
		t.Errorf("overlap after persist = %v, want 1.0", vs.OverlapRatio)
	}
	if vs.CurOctants != vs.PrevOctants {
		t.Errorf("octants %d vs %d after persist", vs.CurOctants, vs.PrevOctants)
	}

	// A localized update lowers overlap but keeps it high.
	target := tr.LeafCodes()[0]
	if !tr.UpdateAt(target, func(d *[DataWords]float64) { d[0] = 1 }) {
		t.Fatal("UpdateAt missed a leaf")
	}
	vs = tr.VersionStats()
	if vs.OverlapRatio >= 1.0 || vs.OverlapRatio < 0.5 {
		t.Errorf("overlap after one update = %v", vs.OverlapRatio)
	}

	// Memory expansion stays modest under high overlap (Figure 3).
	if vs.ExpansionFactor > 1.6 {
		t.Errorf("expansion factor = %v", vs.ExpansionFactor)
	}
}

func TestUpdateAtCopiesPathOnly(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	tr.Persist()
	before := tr.VersionStats()

	target := morton.Root.Child(3).Child(5)
	if !tr.UpdateAt(target, func(d *[DataWords]float64) { d[1] = 7 }) {
		t.Fatal("UpdateAt failed to find leaf")
	}
	vs := tr.VersionStats()
	// Path copying should copy the leaf + its ancestors (3 octants),
	// nothing else.
	copied := vs.CurOctants - vs.SharedOctants - vs.DRAMOctants
	_ = copied
	newOctants := (vs.CurOctants - vs.SharedOctants)
	if newOctants != 3 {
		t.Errorf("update copied %d octants, want 3 (leaf+2 ancestors)", newOctants)
	}
	if before.CurOctants != vs.CurOctants {
		t.Errorf("octant count changed on update: %d -> %d", before.CurOctants, vs.CurOctants)
	}
	// Committed data unchanged, working data changed.
	var got float64
	tr.ForEachLeaf(func(c morton.Code, d [DataWords]float64) bool {
		if c == target {
			got = d[1]
		}
		return true
	})
	if got != 7 {
		t.Errorf("working leaf data = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateAtMissingLeaf(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 1)
	// A code in an absent deeper child path resolves to its covering leaf.
	if !tr.UpdateAt(morton.Root.Child(0).Child(0), func(d *[DataWords]float64) { d[0] = 1 }) {
		t.Error("UpdateAt should update covering leaf")
	}
}

func TestCoarsenDeferredDeletionAndGC(t *testing.T) {
	tr := Create(Config{DRAMBudgetOctants: 1}) // force everything to NVBM
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	// Working-version NVBM octants coarsened away are deferred, not freed.
	live := tr.nv.LiveCount()
	tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() == 1 })
	if tr.stats.Deferred == 0 {
		t.Error("coarsen freed NVBM octants eagerly; expected deferral")
	}
	if tr.nv.LiveCount() != live {
		t.Errorf("live NVBM count changed before GC: %d -> %d", live, tr.nv.LiveCount())
	}
	freed := tr.GC()
	if freed == 0 {
		t.Error("GC freed nothing")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFindAndFindLeaf(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 1)
	c := morton.Root.Child(5)
	if tr.Find(c).IsNil() {
		t.Error("Find missed existing octant")
	}
	if !tr.Find(c.Child(0)).IsNil() {
		t.Error("Find invented an octant")
	}
	_, leaf := tr.FindLeaf(c.Child(0).Child(0))
	if leaf.Code != c {
		t.Errorf("FindLeaf = %v, want %v", leaf.Code, c)
	}
}

func TestBalancePMOctree(t *testing.T) {
	tr := Create(Config{})
	// Build the unbalanced center-adjacent configuration.
	tr.RefineAt(morton.Root)
	n := morton.Root.Child(0)
	for i := 0; i < 3; i++ {
		tr.RefineAt(n)
		n = n.Child(7)
	}
	if tr.IsBalanced() {
		t.Fatal("tree should start unbalanced")
	}
	if tr.Balance() == 0 {
		t.Fatal("balance did nothing")
	}
	if !tr.IsBalanced() {
		t.Fatal("still unbalanced")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceAcrossPersist(t *testing.T) {
	tr := Create(Config{})
	tr.RefineAt(morton.Root)
	tr.Persist()
	n := morton.Root.Child(0)
	for i := 0; i < 3; i++ {
		tr.RefineAt(n)
		n = n.Child(7)
	}
	tr.Balance()
	if !tr.IsBalanced() {
		t.Fatal("unbalanced after COW balance")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionUnderTinyBudget(t *testing.T) {
	tr := Create(Config{DRAMBudgetOctants: 32, ThresholdDRAM: 0.8})
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	tr.Persist()
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.25), 4)
	if tr.Stats().Merges == 0 {
		t.Error("tiny DRAM budget never triggered a merge")
	}
	if got := tr.dram.LiveCount(); got > 32 {
		t.Errorf("DRAM octants = %d exceed budget 32", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreAfterCrash(t *testing.T) {
	nvDev := nvbm.New(nvbm.NVBM, 0)
	dramDev := nvbm.New(nvbm.DRAM, 0)
	tr := Create(Config{NVBMDevice: nvDev, DRAMDevice: dramDev})
	tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.2, 0.15), 3)
	tr.Persist()
	committed := leafSet(tr, tr.CommittedRoot())
	step := tr.Step()

	// Mutate the working version, then crash before persisting. Exhaust
	// the DRAM budget so some working octants land in NVBM and become
	// recoverable orphans.
	tr.dram.SetBudget(8)
	tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 3 }, 3)
	tr.UpdateLeaves(func(morton.Code, *[DataWords]float64) bool { return true })
	dramDev.Crash()
	nvDev.Crash() // no-op for NVBM

	re, err := Restore(Config{NVBMDevice: nvDev, DRAMDevice: nvbm.New(nvbm.DRAM, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if re.Step() != step {
		t.Errorf("restored step = %d, want %d", re.Step(), step)
	}
	got := leafSet(re, re.Root())
	if len(got) != len(committed) {
		t.Fatalf("restored %d leaves, want %d", len(got), len(committed))
	}
	for c, d := range committed {
		if got[c] != d {
			t.Fatalf("leaf %v corrupted by crash: %v != %v", c, got[c], d)
		}
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	// Orphaned working-version octants are reclaimed by the next GC.
	if freed := re.GC(); freed == 0 {
		t.Error("post-restore GC found no orphans despite lost working version")
	}
	// And the restored tree keeps working.
	re.RefineWhere(func(c morton.Code) bool { return c.Level() < 1 }, 4)
	re.Persist()
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreAcrossFile(t *testing.T) {
	nvDev := nvbm.New(nvbm.NVBM, 0)
	tr := Create(Config{NVBMDevice: nvDev})
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	tr.Persist()
	want := leafSet(tr, tr.CommittedRoot())

	path := t.TempDir() + "/pm.img"
	if err := nvDev.PersistFile(path); err != nil {
		t.Fatal(err)
	}
	dev2, err := nvbm.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Restore(Config{NVBMDevice: dev2})
	if err != nil {
		t.Fatal(err)
	}
	got := leafSet(re, re.Root())
	if len(got) != len(want) {
		t.Fatalf("file-restored %d leaves, want %d", len(got), len(want))
	}
}

func TestRestoreRejectsBadDevice(t *testing.T) {
	if _, err := Restore(Config{NVBMDevice: nvbm.New(nvbm.NVBM, 256)}); err == nil {
		t.Error("expected error restoring unformatted device")
	}
}

func TestDeleteClearsEverything(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	tr.Persist()
	tr.Delete()
	if tr.Root() != NilRef || tr.CommittedRoot() != NilRef {
		t.Error("roots survive Delete")
	}
	if tr.nv.LiveCount() != 0 || tr.dram.LiveCount() != 0 {
		t.Error("octants survive Delete")
	}
}

func TestSubtreeLevelForEq1(t *testing.T) {
	cases := []struct {
		depth  uint8
		budget int
		want   uint8
	}{
		{0, 100, 1},     // degenerate: fresh tree
		{5, 1, 5},       // no budget: subtrees are leaves
		{5, 8, 4},       // one level of fanout fits
		{5, 64, 3},      // two levels
		{5, 512, 2},     // three levels
		{5, 1 << 20, 1}, // budget exceeds tree: clamp to 1
		{3, 511, 1},     // floor(log8(511)) = 2 -> 3-2 = 1
	}
	for _, c := range cases {
		if got := SubtreeLevelFor(c.depth, c.budget); got != c.want {
			t.Errorf("SubtreeLevelFor(%d, %d) = %d, want %d", c.depth, c.budget, got, c.want)
		}
	}
}

func TestTransformConcentratesHotSubtrees(t *testing.T) {
	// The hot region sits in child 7's octant — the LAST subtree in
	// Z-order, so the oblivious layout never keeps it in DRAM.
	hotPred := sphere(0.75, 0.75, 0.75, 0.12, 0.1)
	mk := func(disable bool, seed int64) (*Tree, uint64) {
		// Budget 150 holds one 73-octant subtree (plus COW copies) but
		// not the whole 585-octant mesh, so layout choice matters.
		tr := Create(Config{
			DRAMBudgetOctants: 150,
			DisableTransform:  disable,
			Seed:              seed,
		})
		tr.SetFeatures(func(c morton.Code) bool { return hotPred(c) })
		// Build a uniform base mesh and commit it.
		tr.RefineWhere(func(morton.Code) bool { return true }, 3)
		tr.Persist()
		// Solver-style writes concentrated in the hot corner: with
		// transformation the hot subtree is DRAM-resident and absorbs
		// them; obliviously it sits in NVBM.
		before := tr.NVBMDevice().Stats()
		for round := 0; round < 5; round++ {
			tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
				if hotPred(c) {
					d[0]++
					return true
				}
				return false
			})
		}
		return tr, tr.NVBMDevice().Stats().Sub(before).Writes
	}
	_, wOblivious := mk(true, 7)
	trT, wTransform := mk(false, 7)
	if wTransform >= wOblivious {
		t.Errorf("transformation did not reduce NVBM writes: %d (on) vs %d (off)", wTransform, wOblivious)
	}
	if len(trT.HotSubtrees()) == 0 {
		t.Error("transformation selected no hot subtrees")
	}
	if err := trT.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestObliviousLayoutIsZOrderPrefix(t *testing.T) {
	tr := Create(Config{DRAMBudgetOctants: 128, DisableTransform: true})
	tr.RefineWhere(func(morton.Code) bool { return true }, 3)
	tr.Persist()
	hot := tr.HotSubtrees()
	if len(hot) == 0 {
		t.Fatal("no hot subtrees selected")
	}
	// All selected subtrees must form a Z-order prefix of the candidates.
	var all []morton.Code
	tr.ForEachNode(func(_ Ref, o *Octant) bool {
		if o.Code.Level() == tr.SubtreeLevel() {
			all = append(all, o.Code)
		}
		return true
	})
	for i := 1; i < len(all); i++ {
		if !all[i-1].Less(all[i]) {
			t.Fatal("candidates not in Z-order")
		}
	}
	boundary := false
	for _, c := range all {
		if !hot[c] {
			boundary = true
		} else if boundary {
			t.Fatalf("hot set is not a Z-order prefix (gap before %v)", c)
		}
	}
}

func TestWriteMixIsWriteHeavy(t *testing.T) {
	// §1: during meshing, writes are a large share of accesses (up to
	// 72%, 41% average in the paper's traces). Check refinement is
	// write-heavy on our implementation too.
	tr := Create(Config{DRAMBudgetOctants: 1}) // all NVBM
	tr.NVBMDevice().ResetStats()
	tr.RefineWhere(func(morton.Code) bool { return true }, 3)
	frac := tr.NVBMDevice().Stats().WriteFraction()
	if frac < 0.25 || frac > 0.95 {
		t.Errorf("refinement write fraction = %v, expected write-heavy mix", frac)
	}
}

func TestStatsCounters(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 1)
	tr.Persist()
	s := tr.Stats()
	if s.Refines != 1 || s.Persists != 1 || s.GCs != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestLeafCountTracksMutations: LeafCount is answered from a counter, so
// every operation that changes the leaf set must keep it equal to a walk —
// including on a restored tree, whose count starts unknown.
func TestLeafCountTracksMutations(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(Config{NVBMDevice: nv, DRAMBudgetOctants: 64})
	check := func(tr *Tree, after string) {
		t.Helper()
		if got, want := tr.LeafCount(), len(tr.LeafCodes()); got != want {
			t.Fatalf("after %s: LeafCount %d, walk counts %d", after, got, want)
		}
	}
	check(tr, "Create")
	tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.2, 0.1), 4)
	check(tr, "RefineWhere")
	tr.RefineAt(tr.LeafCodes()[0])
	check(tr, "RefineAt")
	tr.Balance()
	check(tr, "Balance")
	tr.Persist()
	tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 2 })
	check(tr, "CoarsenWhere")
	tr.Persist()

	re, err := Restore(Config{NVBMDevice: nv})
	if err != nil {
		t.Fatal(err)
	}
	re.RefineWhere(sphere(0.6, 0.6, 0.6, 0.2, 0.1), 4) // before the first count
	check(re, "Restore + RefineWhere")
	re.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 3 })
	check(re, "Restore + CoarsenWhere")
	re.Persist()
	if _, err := re.ConstructFromCodes(tr.LeafCodes(), nil, nil, false); err != nil {
		t.Fatal(err)
	}
	check(re, "ConstructFromCodes")
}

func TestRefString(t *testing.T) {
	if NilRef.String() != "nil" {
		t.Error("nil ref string")
	}
	r := makeRef(true, 5)
	if r.String() != "DR:5" || !r.InDRAM() || r.Handle() != 5 {
		t.Errorf("ref = %v", r)
	}
	n := makeRef(false, 9)
	if n.String() != "NV:9" || n.InDRAM() {
		t.Errorf("ref = %v", n)
	}
}

// Property: arbitrary interleaved refine/coarsen/update/persist sequences
// keep both versions valid, and the committed version is always exactly
// the state at the last persist.
func TestQuickVersionedOperations(t *testing.T) {
	f := func(seed int64, script []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := Create(Config{DRAMBudgetOctants: 64, Seed: seed})
		lastCommitted := leafSet(tr, tr.CommittedRoot())
		for _, op := range script {
			cx, cy, cz := r.Float64(), r.Float64(), r.Float64()
			pred := sphere(cx, cy, cz, 0.2, 0.15)
			switch op % 4 {
			case 0:
				tr.RefineWhere(pred, 3)
			case 1:
				tr.CoarsenWhere(pred)
			case 2:
				tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
					if pred(c) {
						d[0]++
						return true
					}
					return false
				})
			case 3:
				tr.Persist()
				lastCommitted = leafSet(tr, tr.CommittedRoot())
			}
			if tr.Validate() != nil {
				return false
			}
			got := leafSet(tr, tr.CommittedRoot())
			if len(got) != len(lastCommitted) {
				return false
			}
			for c, d := range lastCommitted {
				if got[c] != d {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: restore after a crash always yields exactly the committed
// version.
func TestQuickCrashRecovery(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nvDev := nvbm.New(nvbm.NVBM, 0)
		tr := Create(Config{NVBMDevice: nvDev, Seed: seed, DRAMBudgetOctants: 64})
		for i := 0; i < int(nops%8); i++ {
			tr.RefineWhere(sphere(r.Float64(), r.Float64(), r.Float64(), 0.25, 0.2), 3)
			if i%2 == 0 {
				tr.Persist()
			}
		}
		want := leafSet(tr, tr.CommittedRoot())
		// Crash: mutate working state, lose DRAM.
		tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 2 }, 2)
		re, err := Restore(Config{NVBMDevice: nvDev})
		if err != nil {
			return false
		}
		got := leafSet(re, re.Root())
		if len(got) != len(want) {
			return false
		}
		for c, d := range want {
			if got[c] != d {
				return false
			}
		}
		return re.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: octant record encode/decode is the identity.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(code uint64, parent uint32, flags uint32, kids [8]uint32, d0, d1, d2, d3 float64, ver uint64) bool {
		o := Octant{
			Code:    morton.Code(code),
			Parent:  Ref(parent),
			Flags:   flags,
			Data:    [DataWords]float64{d0, d1, d2, d3},
			Version: ver,
		}
		for i, k := range kids {
			o.Children[i] = Ref(k)
		}
		var buf [RecordSize]byte
		o.encode(buf[:])
		var got Octant
		got.decode(buf[:])
		return got == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestForEachLeafInRange(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)

	// Full range covers everything.
	all := 0
	tr.ForEachLeafInRange(0, ^uint64(0), func(morton.Code, [DataWords]float64) bool {
		all++
		return true
	})
	if all != 64 {
		t.Fatalf("full range visited %d leaves", all)
	}

	// Split at the median leaf key: both halves partition the set.
	var keys []uint64
	tr.ForEachLeaf(func(c morton.Code, _ [DataWords]float64) bool {
		keys = append(keys, c.Key())
		return true
	})
	mid := keys[len(keys)/2]
	left, right := 0, 0
	tr.ForEachLeafInRange(0, mid, func(c morton.Code, _ [DataWords]float64) bool {
		if c.Key() >= mid {
			t.Fatalf("leaf %v outside range", c)
		}
		left++
		return true
	})
	tr.ForEachLeafInRange(mid, ^uint64(0), func(c morton.Code, _ [DataWords]float64) bool {
		if c.Key() < mid {
			t.Fatalf("leaf %v outside range", c)
		}
		right++
		return true
	})
	if left+right != all {
		t.Errorf("halves sum to %d, want %d", left+right, all)
	}

	// Pruning: a narrow range reads far fewer octants than a full walk.
	tr.setAccounting(true)
	tr.NVBMDevice().ResetStats()
	tr.DRAMDevice().ResetStats()
	tr.ForEachLeafInRange(mid, mid+1, func(morton.Code, [DataWords]float64) bool { return true })
	narrow := tr.NVBMDevice().Stats().Reads + tr.DRAMDevice().Stats().Reads
	tr.NVBMDevice().ResetStats()
	tr.DRAMDevice().ResetStats()
	tr.ForEachLeaf(func(morton.Code, [DataWords]float64) bool { return true })
	full := tr.NVBMDevice().Stats().Reads + tr.DRAMDevice().Stats().Reads
	if narrow*3 > full {
		t.Errorf("narrow range read %d octants vs %d full; pruning ineffective", narrow, full)
	}

	// Early stop.
	n := 0
	tr.ForEachLeafInRange(0, ^uint64(0), func(morton.Code, [DataWords]float64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestOnDemandGCAtNVBMThreshold(t *testing.T) {
	// §3.2: when NVBM utilization crosses threshold_NVBM, GC runs on
	// demand, mid-step, not just at persists.
	tr := Create(Config{
		DRAMBudgetOctants: 1, // push octants to NVBM
		NVBMBudgetOctants: 400,
		ThresholdNVBM:     0.5,
	})
	// Churn: refine and coarsen repeatedly without persisting; deferred
	// deletions accumulate until the watermark forces a collection.
	for i := 0; i < 4; i++ {
		tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 2 }, 2)
		tr.CoarsenWhere(func(morton.Code) bool { return true })
	}
	if tr.Stats().GCs == 0 {
		t.Fatalf("no on-demand GC despite churn past the watermark (stats %+v)", tr.Stats())
	}
	if tr.Stats().Persists != 0 {
		t.Fatal("test must not persist")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
