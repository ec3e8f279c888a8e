package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/telemetry"
)

// gcScript drives one tree — and the trees restored from its device —
// through a byte-coded operation sequence. Every operation is followed by
// a look at the ledger self-check (TestMain turns it on), so a collection
// whose ledger-freed set differs from the mark-and-sweep oracle's fails at
// the operation that ran it.
type gcScript struct {
	tb   testing.TB
	cfg  Config
	tr   *Tree
	pins []*VersionPin
	size []int // leaf count of each pin's version, taken at pin time

	gcs, fulls int // collections of the retired trees
}

func newGCScript(tb testing.TB, depth, retain int) *gcScript {
	cfg := Config{
		NVBMDevice:        nvbm.New(nvbm.NVBM, 0),
		DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
		DRAMBudgetOctants: 96,
		PipelineDepth:     depth,
		RetainVersions:    retain,
	}
	return &gcScript{tb: tb, cfg: cfg, tr: Create(cfg)}
}

// gcOps names the script's operations, for failure messages.
var gcOps = [...]string{"refine", "coarsen", "scatter", "update", "construct", "persist",
	"pin", "release", "restore", "crash", "compact", "gc", "balance"}

func (s *gcScript) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		s.op(ops[i], ops[i+1])
		if err := LedgerCheckError(); err != nil {
			s.tb.Fatalf("op %d (%s %d): %v", i/2, gcOps[int(ops[i])%len(gcOps)], ops[i+1], err)
		}
	}
	s.tr.Persist()
	s.tr.GC()
	if err := LedgerCheckError(); err != nil {
		s.tb.Fatalf("final collection: %v", err)
	}
	if err := s.tr.Validate(); err != nil {
		s.tb.Fatal(err)
	}
	s.releaseAll()
	s.tr.Close()
}

func (s *gcScript) op(code, arg byte) {
	tr := s.tr
	x := float64(arg%16) / 16
	near := sphere(x, 1-x, 0.5, 0.3, 0.08)
	switch int(code) % len(gcOps) {
	case 0:
		tr.RefineWhere(near, 3+arg%3)
	case 1:
		tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 1 && !near(c) })
	case 2:
		sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool {
			if uint64(c)%5 != uint64(arg)%5 {
				return false
			}
			d[0]++
			return true
		})
	case 3:
		tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool {
			if uint64(c)%7 != uint64(arg)%7 {
				return false
			}
			d[1] += 0.5
			return true
		})
	case 4:
		if tr.Root() == tr.CommittedRoot() {
			if _, err := tr.ConstructFromCodes(gcConstructCodes(arg), nil, nil, false); err != nil {
				s.tb.Fatal(err)
			}
		}
	case 5:
		tr.Persist()
	case 6:
		p := tr.PinCommitted()
		s.pins = append(s.pins, p)
		s.size = append(s.size, pinLeafCount(p))
	case 7:
		if len(s.pins) > 0 {
			i := int(arg) % len(s.pins)
			if got := pinLeafCount(s.pins[i]); got != s.size[i] {
				s.tb.Fatalf("pinned step %d reads %d leaves, %d when pinned", s.pins[i].Step(), got, s.size[i])
			}
			s.pins[i].Release()
			s.pins = append(s.pins[:i], s.pins[i+1:]...)
			s.size = append(s.size[:i], s.size[i+1:]...)
		}
	case 8, 9:
		// A clean restart, or a crash that loses the working version.
		s.releaseAll()
		if code%2 == 0 {
			tr.Close()
		}
		s.gcs += tr.stats.GCs
		s.fulls += tr.led.fulls
		rt, err := Restore(s.cfg)
		if err != nil {
			s.tb.Fatal(err)
		}
		s.tr = rt
	case 10:
		if tr.Root() == tr.CommittedRoot() && len(s.pins) == 0 {
			if _, err := tr.Compact(); err != nil {
				s.tb.Fatal(err)
			}
			s.cfg.NVBMDevice = tr.NVBMDevice()
		}
	case 11:
		tr.GC()
	case 12:
		tr.Balance()
	}
}

func (s *gcScript) releaseAll() {
	for _, p := range s.pins {
		p.Release()
	}
	s.pins, s.size = s.pins[:0], s.size[:0]
}

// collections returns the collections run so far and how many of them
// were full marks.
func (s *gcScript) collections() (gcs, fulls int) {
	return s.gcs + s.tr.stats.GCs, s.fulls + s.tr.led.fulls
}

// gcConstructCodes is a complete leaf set chosen by arg: the level-2 grid
// with the cells whose index bits match arg split once more.
func gcConstructCodes(arg byte) []morton.Code {
	var codes []morton.Code
	for i := 0; i < 64; i++ {
		c := morton.Root.Child(i / 8).Child(i % 8)
		if (i*37+int(arg))%3 == 0 {
			for k := 0; k < 8; k++ {
				codes = append(codes, c.Child(k))
			}
		} else {
			codes = append(codes, c)
		}
	}
	return codes
}

func pinLeafCount(p *VersionPin) int {
	n := 0
	p.ForEachNode(nvbm.Discard, func(_ Ref, o *Octant) bool {
		if o.IsLeaf() {
			n++
		}
		return true
	})
	return n
}

// gcConfigs are the (PipelineDepth, RetainVersions) pairs the ledger is
// held to: with and without retained versions, and each again on a Config
// carrying the deprecated PipelineDepth, at the pairs the removed persist
// worker ran (depth 2 left ring room for RetainVersions 1 only, so the
// retaining pair is at depth 1).
var gcConfigs = [][2]int{{0, 0}, {0, 2}, {2, 0}, {1, 2}}

// TestGCLedgerMatchesMarkSweep runs random operation sequences — refine,
// coarsen, tile scatter, indexed update, construct, persist, pin, release,
// clean restart, crash, compact, explicit collection, balance — and holds
// every ledger collection to the mark-and-sweep oracle's freed set.
func TestGCLedgerMatchesMarkSweep(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, c := range gcConfigs {
		t.Run(fmt.Sprintf("depth%d_retain%d", c[0], c[1]), func(t *testing.T) {
			var gcs, fulls int
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				ops := make([]byte, 240)
				for i := range ops {
					ops[i] = byte(rng.Intn(256))
				}
				// Mostly steps: persist every few operations.
				for i := 0; i < len(ops); i += 2 {
					if rng.Intn(4) == 0 {
						ops[i] = 5
					}
				}
				s := newGCScript(t, c[0], c[1])
				s.run(ops)
				g, f := s.collections()
				gcs, fulls = gcs+g, fulls+f
			}
			t.Logf("%d collections, %d of them full", gcs, fulls)
			if gcs-fulls < gcs/2 {
				t.Errorf("only %d of %d collections answered from the ledger", gcs-fulls, gcs)
			}
		})
	}
}

// FuzzGCLedger is TestGCLedgerMatchesMarkSweep over fuzzed operation
// sequences: the first byte picks the gcConfigs pair.
func FuzzGCLedger(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 0, 2, 0, 5, 0, 6, 0, 1, 2, 5, 0, 7, 0, 5, 0})
	f.Add([]byte{1, 0, 3, 5, 0, 6, 0, 4, 1, 5, 0, 9, 0, 0, 4, 5, 0, 11, 0})
	f.Add([]byte{2, 0, 5, 5, 0, 8, 0, 4, 2, 5, 0, 10, 0, 3, 1, 5, 0})
	f.Add([]byte{3, 0, 2, 5, 0, 6, 0, 1, 9, 12, 0, 5, 0, 8, 0, 5, 0, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 97 {
			return
		}
		c := gcConfigs[int(ops[0])%len(gcConfigs)]
		newGCScript(t, c[0], c[1]).run(ops[1:])
	})
}

// amrStep is one amr-style step on a sphere that moves with s: refine at
// the interface, coarsen away from it, balance, write the leaves near it,
// persist.
func amrStep(tr *Tree, s int) {
	x := 0.3 + 0.02*float64(s)
	near := sphere(x, 0.5, 0.5, 0.2, 0.06)
	tr.RefineWhere(near, 5)
	tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 2 && !near(c) })
	tr.Balance()
	tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool {
		if !near(c) {
			return false
		}
		d[0] = float64(s)
		return true
	})
	tr.Persist()
}

// TestGCFullCollections pins when the full mark runs: once on a restored
// tree's first collection (with a gc_full event naming the restore), and
// never in steady-state stepping.
func TestGCFullCollections(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	cfg := Config{NVBMDevice: dev, DRAMBudgetOctants: 256}
	tr := Create(cfg)
	for s := 0; s < 4; s++ {
		amrStep(tr, s)
	}
	tr.Close()

	rt, err := Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rt.RegisterMetrics(reg, "pm")
	fr := telemetry.NewFlightRecorder(256)
	rt.SetFlightRecorder(fr)
	full := func() float64 { return reg.Snapshot().Gauges["core.gc.full_collections"] }
	if n := full(); n != 0 {
		t.Fatalf("restored tree starts with %v full collections", n)
	}
	amrStep(rt, 4)
	if n := full(); n != 1 {
		t.Fatalf("after the first collection: %v full collections, want 1", n)
	}
	var reasons []string
	for _, ev := range fr.Events() {
		if ev.Kind == "gc_full" {
			reasons = append(reasons, ev.Detail)
		}
	}
	if len(reasons) != 1 || reasons[0] != "restore" {
		t.Fatalf("gc_full events %q, want one naming the restore", reasons)
	}
	for s := 5; s < 25; s++ {
		amrStep(rt, s)
	}
	if n := full(); n != 1 {
		t.Fatalf("20 steady-state steps ran %v full collections", n-1)
	}
	if p := reg.Snapshot().Gauges["core.gc.pending"]; p != 0 {
		t.Fatalf("%v deaths pending with no older version live", p)
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGCPendingHeldByPin: a pinned version holds the deaths of the steps
// after it, which the pending gauge counts, until its release.
func TestGCPendingHeldByPin(t *testing.T) {
	tr := Create(Config{DRAMBudgetOctants: 256})
	reg := telemetry.NewRegistry()
	tr.RegisterMetrics(reg, "pm")
	amrStep(tr, 0)
	pin := tr.PinCommitted()
	amrStep(tr, 1)
	amrStep(tr, 2)
	if p := reg.Snapshot().Gauges["core.gc.pending"]; p == 0 {
		t.Fatal("no deaths pending while a superseded version is pinned")
	}
	pin.Release()
	tr.GC()
	if p := reg.Snapshot().Gauges["core.gc.pending"]; p != 0 {
		t.Fatalf("%v deaths pending after the pin's release", p)
	}
	if n := reg.Snapshot().Gauges["core.gc.full_collections"]; n != 0 {
		t.Fatalf("%v full collections on a tree that was never restored", n)
	}
}

// TestPinReleaseRacesLedgerGC releases pins from reader goroutines while
// the writer steps, persists and collects through the ledger: every pinned
// version must stay whole — a full walk reads the leaf count it had when
// pinned — until its own release. Run it under -race.
func TestPinReleaseRacesLedgerGC(t *testing.T) {
	for _, depth := range pipelineDepths {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			tr := Create(Config{DRAMBudgetOctants: 256, PipelineDepth: depth})
			defer tr.Close()
			type held struct {
				pin    *VersionPin
				leaves int
			}
			work := make(chan held, 64)
			var wg sync.WaitGroup
			var mu sync.Mutex
			var failures []string
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for h := range work {
						for k := 0; k < 3; k++ {
							if got := pinLeafCount(h.pin); got != h.leaves {
								mu.Lock()
								failures = append(failures, fmt.Sprintf("step %d: %d leaves, %d when pinned", h.pin.Step(), got, h.leaves))
								mu.Unlock()
								break
							}
						}
						h.pin.Release()
					}
				}()
			}
			steps := 30
			if testing.Short() {
				steps = 12
			}
			for s := 0; s < steps; s++ {
				amrStep(tr, s)
				p := tr.PinCommitted()
				work <- held{pin: p, leaves: pinLeafCount(p)}
			}
			close(work)
			wg.Wait()
			tr.GC()
			if len(failures) > 0 {
				t.Fatal(failures[0])
			}
			if n := tr.led.fulls; n != 0 {
				t.Fatalf("%d full collections; the ledger should answer every one", n)
			}
			if err := LedgerCheckError(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGCReclaimsOnceDurable: every version is durable when its Persist
// returns, so the collection inside Persist frees the superseded
// version's deaths at once — even on a Config carrying the deprecated
// PipelineDepth, under which the removed persist worker held them until
// its commit flip. No death is held with no older version live, and the
// next batch operation runs no catch-up collection before it allocates.
func TestGCReclaimsOnceDurable(t *testing.T) {
	tr := Create(Config{DRAMBudgetOctants: 256, PipelineDepth: 2})
	defer tr.Close()
	amrStep(tr, 0)
	for s := 1; s <= 3; s++ {
		freed := tr.stats.GCFreed
		amrStep(tr, s)
		if tr.stats.GCFreed == freed {
			t.Fatalf("step %d: the collection inside Persist freed nothing", s)
		}
		if tr.led.held != 0 {
			t.Fatalf("step %d: %d deaths held with no older version live", s, tr.led.held)
		}
		gcs := tr.stats.GCs
		tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.2, 0.05), 4)
		if tr.stats.GCs != gcs {
			t.Fatalf("step %d: %d collections inside RefineWhere after a commit", s, tr.stats.GCs-gcs)
		}
	}
	if err := LedgerCheckError(); err != nil {
		t.Fatal(err)
	}
}
