package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// pinLeafSet collects the pinned version's leaves through the pin's own
// read-only walk.
func pinLeafSet(p *VersionPin) map[morton.Code][DataWords]float64 {
	set := map[morton.Code][DataWords]float64{}
	p.ForEachNode(func(r Ref, o *Octant) bool {
		if o.IsLeaf() {
			set[o.Code] = o.Data
		}
		return true
	})
	return set
}

// TestRetainDepthTypedError pins the satellite fix: asking for more
// retained versions than the fallback ring holds is a typed error, not a
// silent clamp.
func TestRetainDepthTypedError(t *testing.T) {
	bad := Config{RetainVersions: MaxRetainVersions + 1}
	var rde *RetainDepthError
	if err := bad.Validate(); !errors.As(err, &rde) {
		t.Fatalf("Validate = %v, want *RetainDepthError", err)
	} else if rde.Requested != MaxRetainVersions+1 || rde.Limit != MaxRetainVersions {
		t.Fatalf("RetainDepthError = %+v, want requested %d limit %d", rde, MaxRetainVersions+1, MaxRetainVersions)
	}
	if err := (Config{RetainVersions: MaxRetainVersions}).Validate(); err != nil {
		t.Fatalf("Validate at the limit = %v, want nil", err)
	}

	// Create panics with the same typed error.
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.As(err, &rde) {
				t.Fatalf("Create panic = %v, want *RetainDepthError", r)
			}
		}()
		bad.NVBMDevice = nvbm.New(nvbm.NVBM, 0)
		bad.DRAMDevice = nvbm.New(nvbm.DRAM, 0)
		Create(bad)
	}()

	// Restore returns it.
	dev := nvbm.New(nvbm.NVBM, 0)
	Create(Config{NVBMDevice: dev, DRAMDevice: nvbm.New(nvbm.DRAM, 0)}).Persist()
	_, _, err := RestoreWithReport(Config{
		NVBMDevice:     dev,
		DRAMDevice:     nvbm.New(nvbm.DRAM, 0),
		RetainVersions: MaxRetainVersions + 2,
	})
	if !errors.As(err, &rde) {
		t.Fatalf("RestoreWithReport = %v, want *RetainDepthError", err)
	}
}

// TestPinSurvivesGC pins the MVCC contract: a pinned committed version
// stays fully readable — bit-identical leaves — across churny commits and
// GC passes that would otherwise reclaim it, and is reclaimed only after
// its last reference is released.
func TestPinSurvivesGC(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	tr := Create(Config{NVBMDevice: dev, DRAMDevice: nvbm.New(nvbm.DRAM, 0)})
	tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.25, 0.15), 3)
	tr.Persist()
	want := leafSet(tr, tr.CommittedRoot())
	pin := tr.PinCommitted()
	second := pin.Retain()
	oldRoot := pin.Root()

	// Churn: replace essentially the whole tree across two commits, each
	// running GC. Without the pin the old version's octants are reclaimed
	// (that is exactly what TestRetainVersionsKeepsRingRestorable shows
	// for RetainVersions=0).
	tr.CoarsenWhere(func(c morton.Code) bool { return true })
	tr.RefineWhere(sphere(0.7, 0.7, 0.7, 0.2, 0.1), 3)
	tr.Persist()
	tr.RefineWhere(sphere(0.2, 0.8, 0.5, 0.2, 0.1), 4)
	tr.Persist()

	if !tr.nv.Live(oldRoot.Handle()) {
		t.Fatal("pinned version's root was reclaimed by GC")
	}
	got := pinLeafSet(pin)
	sameLeaves(t, got, want, "pinned snapshot after churn")
	if r, o := pin.FindLeaf(morton.Root); r != oldRoot || o.Code != morton.Root {
		t.Fatalf("FindLeaf(root) = %v %v, want pin root", r, o.Code)
	}

	// One release keeps it pinned; the last one frees it for the next GC.
	second.Release()
	if tr.PinnedVersions() != 1 || pin.Refs() != 1 {
		t.Fatalf("after one release: pins %d refs %d, want 1 1", tr.PinnedVersions(), pin.Refs())
	}
	tr.GC()
	if !tr.nv.Live(oldRoot.Handle()) {
		t.Fatal("version reclaimed while a reference remained")
	}
	pin.Release()
	if tr.PinnedVersions() != 0 {
		t.Fatalf("pins = %d after final release, want 0", tr.PinnedVersions())
	}
	tr.GC()
	if tr.nv.Live(oldRoot.Handle()) {
		t.Fatal("released version survived GC; retention leak")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRefusesWhilePinned: compaction swaps the arena out from under
// every snapshot, so it must refuse with ErrPinned until the last pin
// closes.
func TestCompactRefusesWhilePinned(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 3)
	tr.Persist()
	pin := tr.PinCommitted()
	if _, err := tr.Compact(); !errors.Is(err, ErrPinned) {
		t.Fatalf("Compact with a pin = %v, want ErrPinned", err)
	}
	pin.Release()
	if _, err := tr.Compact(); err != nil {
		t.Fatalf("Compact after release = %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedVersionsAndPinVersion: with retention on, the fallback ring
// versions are enumerable newest-first and individually pinnable, giving a
// server genuine history to serve.
func TestRetainedVersionsAndPinVersion(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	tr := Create(Config{
		NVBMDevice:     dev,
		DRAMDevice:     nvbm.New(nvbm.DRAM, 0),
		RetainVersions: 2,
	})
	tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.25, 0.15), 3)
	tr.Persist()
	wantOld := leafSet(tr, tr.CommittedRoot())
	oldStep := tr.CommittedStep()

	tr.RefineWhere(sphere(0.6, 0.6, 0.6, 0.25, 0.15), 3)
	tr.Persist()
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[0] = 3
		return true
	})
	tr.Persist()

	vs := tr.RetainedVersions()
	if len(vs) != 2 {
		t.Fatalf("RetainedVersions = %v, want 2 entries", vs)
	}
	if vs[0].Step <= vs[1].Step {
		t.Fatalf("RetainedVersions not newest-first: %v", vs)
	}
	if vs[1].Step != oldStep {
		t.Fatalf("oldest retained step = %d, want %d", vs[1].Step, oldStep)
	}
	pin, err := tr.PinVersion(vs[1].Root, vs[1].Step)
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	sameLeaves(t, pinLeafSet(pin), wantOld, "pinned ring version")

	if _, err := tr.PinVersion(NilRef, 99); err == nil {
		t.Fatal("PinVersion accepted a nil root")
	}
}

// TestPinnedLeafIndexMatchesWalk is the oracle for the leaf index a pin
// carries (VersionPin.Leaves): through random sequences of refine,
// coarsen, balance, scatter (closed, and left open with marked edits),
// persist, flush, GC, Compact, Restore and both bulk constructions, at
// each of pipelineDepths and RetainVersions 0 and 2 (1 beside depth 2, as
// the removed persist worker's ring room allowed), every copy a pin
// carries equals a walk of the pinned version in codes and payload, and is
// never taken from a version holding a filler leaf. A pin is taken after each operation and
// rechecked while it is held. Pins of retained ring versions carry none.
func TestPinnedLeafIndexMatchesWalk(t *testing.T) {
	for _, depth := range pipelineDepths {
		for _, retain := range []int{0, 2} {
			retain = min(retain, MaxRetainVersions-depth)
			t.Run(fmt.Sprintf("depth%d/retain%d", depth, retain), func(t *testing.T) {
				pinnedIndexSoak(t, depth, retain)
			})
		}
	}
}

func pinnedIndexSoak(t *testing.T, depth, retain int) {
	cfg := Config{DRAMBudgetOctants: 48, Seed: 9, PipelineDepth: depth, RetainVersions: retain, NVBMDevice: nvbm.New(nvbm.NVBM, 0)}
	tr := Create(cfg)
	rng := rand.New(rand.NewSource(int64(41 + 10*depth + retain)))
	point := func() func(morton.Code) bool {
		return containing(rng.Float64(), rng.Float64(), rng.Float64())
	}
	var held []*VersionPin // pins kept across operations, oldest first
	releaseAll := func() {
		for _, p := range held {
			p.Release()
		}
		held = held[:0]
	}
	defer releaseAll()
	shared, plain := 0, 0
	check := func(label string, p *VersionPin) {
		t.Helper()
		st := p.Leaves()
		if st == nil {
			return
		}
		var walk []leafEntry
		p.ForEachNode(func(_ Ref, o *Octant) bool {
			if o.IsLeaf() {
				if o.Filler() {
					t.Fatalf("%s: pin of step %d carries an index of a version holding filler leaf %v", label, p.Step(), o.Code)
				}
				walk = append(walk, leafEntry{Code: o.Code, Data: o.Data})
			}
			return true
		})
		if got := storeLeaves(st); !slices.Equal(got, walk) {
			t.Fatalf("%s: pin of step %d carries %d leaves that differ from a walk of it (%d leaves)", label, p.Step(), len(got), len(walk))
		}
	}
	construct := func(fillers bool) {
		tr.Persist() // construction runs at a step boundary
		codes := tr.LeafCodes()
		data := make([][DataWords]float64, len(codes))
		for i := range data {
			data[i] = [DataWords]float64{rng.Float64(), float64(i)}
		}
		var err error
		if fillers {
			_, err = tr.ConstructWithFillers(codes, data, rng.Intn(len(codes)), nil)
		} else {
			_, err = tr.ConstructFromCodes(codes, data, nil, true)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	edit := func() {
		st := tr.LeafTiles()
		w, k := rng.Intn(DataWords), rng.Float64()
		for i := range st.Codes() {
			if rng.Intn(3) == 0 {
				st.F[w][i] = k + float64(i)
				st.MarkDirty(i)
			}
		}
	}
	ops := []struct {
		name string
		do   func()
	}{
		{"Refine", func() { tr.RefineWhere(point(), uint8(2+rng.Intn(5))) }},
		{"Coarsen", func() {
			min := uint8(2 + rng.Intn(4))
			keep := point()
			tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= min && !keep(c) })
		}},
		{"Balance", func() { tr.Balance() }},
		{"Scatter", func() {
			edit()
			tr.ScatterLeafTiles(tr.LeafTiles())
		}},
		{"EditNoScatter", edit},
		{"UpdateAt", func() {
			codes := tr.LeafCodes()
			tr.UpdateAt(codes[rng.Intn(len(codes))], func(d *[DataWords]float64) { d[0] = rng.Float64() })
		}},
		{"Persist", func() { tr.Persist() }},
		{"Persist", func() { tr.Persist() }},
		{"PersistFlush", func() { tr.Persist(); tr.Flush() }},
		{"PersistFlush", func() { tr.Persist(); tr.Flush() }},
		{"Flush", func() { tr.Flush() }},
		{"GC", func() { tr.GC() }},
		{"Compact", func() {
			releaseAll()
			tr.Persist()
			if _, err := tr.Compact(); err != nil {
				t.Fatal(err)
			}
			cfg.NVBMDevice = tr.NVBMDevice()
		}},
		{"Restore", func() {
			releaseAll()
			tr.Persist()
			tr.Close()
			restored, err := Restore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr = restored
		}},
		// A filler tree stays one until a construction replaces it.
		{"ConstructFromCodes", func() { construct(false) }},
		{"ConstructFromCodes", func() { construct(false) }},
		{"ConstructFromCodes", func() { construct(false) }},
		{"ConstructWithFillers", func() { construct(true) }},
	}
	const steps = 250
	for step := 0; step < steps; step++ {
		op := ops[rng.Intn(len(ops))]
		op.do()
		label := fmt.Sprintf("step %d (%s)", step, op.name)
		p := tr.PinCommitted()
		if p.Leaves() != nil {
			shared++
		} else {
			plain++
		}
		held = append(held, p)
		for _, q := range held {
			check(label, q)
		}
		if len(held) > 2 {
			held[0].Release()
			held = held[1:]
		}
		for _, v := range tr.RetainedVersions() {
			q, err := tr.PinVersion(v.Root, v.Step)
			if err != nil {
				t.Fatal(err)
			}
			if q.Leaves() != nil {
				t.Fatalf("%s: pin of retained step %d carries a leaf index", label, v.Step)
			}
			q.Release()
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	// Both kinds of pin must occur, or half the oracle is idle.
	t.Logf("%d pins carried the writer's index, %d did not", shared, plain)
	if shared < steps/10 || plain < steps/10 {
		t.Fatalf("%d pins carried the writer's index and %d did not, of %d", shared, plain, steps)
	}
}
