package fault

import (
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
	"pmoctree/internal/sim"
)

// TestConstructChaosSoak: bulk construction is crash-safe. A torn power
// cut placed anywhere inside the construct + persist write traffic must
// leave restorable content equal to a committed version — the freshly
// created root (the constructed commit never landed) or the constructed
// step-1 mesh — never a torn hybrid; and the survivor must validate and
// continue stepping to the incremental run's exact committed digests.
// (As in the main soak, content is the contract: a cut tearing the root
// store itself can leave the step counter ahead of the content it points
// to, which recovery resolves in the content's favor.)
func TestConstructChaosSoak(t *testing.T) {
	const maxLevel = 4
	const lastStep = 4
	d := sim.NewDroplet(sim.DropletConfig{Steps: lastStep + 8})

	// Reference digests from the incremental path, keyed by workload step
	// (0 = the created root). Digests hash codes and data only, so the
	// reference can live on the default device.
	refDigest := map[int]uint64{}
	ref := core.Create(core.Config{})
	refDigest[0] = commitDigest(ref)
	for s := 1; s <= lastStep; s++ {
		sim.Step(ref, d, s, maxLevel)
		ref.Persist()
		refDigest[s] = commitDigest(ref)
	}
	contentStep := func(dg uint64) int {
		for s, want := range refDigest {
			if dg == want {
				return s
			}
		}
		return -1
	}

	// Write countdowns spanning the whole construct + persist traffic.
	// Construction coalesces the arena fill into a handful of span writes,
	// so the interesting countdowns are small: early cuts land in the bulk
	// span write, later ones inside Persist's root store, GC, and
	// retarget; the largest never fire.
	cuts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 100000}
	crashes, survived := 0, 0
	for _, cut := range cuts {
		nv := nvbm.New(nvbm.NVBM, 0)
		cfg := core.Config{NVBMDevice: nv, VerifyRestore: true}
		tree := core.Create(cfg)
		nv.CutPowerAfterTorn(cut, int64(cut)*7919+3)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != nvbm.ErrPowerLost {
						t.Fatalf("cut %d: non-power panic: %v", cut, r)
					}
					crashed = true
				}
			}()
			if _, ok := sim.ConstructInitial(tree, d, 1, maxLevel, nil); !ok {
				t.Fatal("ConstructInitial declined a fresh PM-octree")
			}
			tree.Persist()
		}()
		nv.RestorePower()
		content := 1
		if crashed {
			crashes++
			rt, err := core.Restore(cfg)
			if err != nil {
				t.Fatalf("cut %d: unrecoverable after torn cut: %v", cut, err)
			}
			content = contentStep(commitDigest(rt))
			if content != 0 && content != 1 {
				t.Fatalf("cut %d: restored content (digest %016x) matches no committed version",
					cut, commitDigest(rt))
			}
			tree = rt
		} else {
			survived++
			if commitDigest(tree) != refDigest[1] {
				t.Fatalf("cut %d: constructed commit diverged from the incremental step 1", cut)
			}
		}
		// Converge back to the reference: redo step 1 by construction if
		// the cut erased it, then step incrementally; every commit's
		// content must hit the incremental digest for its workload step.
		for s := content + 1; s <= lastStep; s++ {
			if s == 1 {
				if _, ok := sim.ConstructInitial(tree, d, 1, maxLevel, nil); !ok {
					t.Fatalf("cut %d: ConstructInitial declined the restored fresh tree", cut)
				}
			} else {
				sim.Step(tree, d, s, maxLevel)
			}
			tree.Persist()
			if dg := commitDigest(tree); dg != refDigest[s] {
				t.Fatalf("cut %d: step %d diverged after recovery (digest %016x)", cut, s, dg)
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("cut %d: final validate: %v", cut, err)
		}
	}
	// The sweep must actually exercise both outcomes, or the countdown
	// list has drifted away from the construct traffic.
	if crashes == 0 || survived == 0 {
		t.Fatalf("degenerate cut sweep: %d crashes, %d clean runs", crashes, survived)
	}
	t.Logf("construct torn-cut sweep: %d crashes recovered, %d clean runs", crashes, survived)
}

// ingestSet is one droplet leaf set ready for ConstructFromCodes, with the
// committed digest a fresh tree constructed from it reaches.
type ingestSet struct {
	codes  []morton.Code
	data   [][core.DataWords]float64
	digest uint64
}

func dropletSet(t *testing.T, d *sim.Droplet, step int, maxLevel uint8) ingestSet {
	t.Helper()
	fresh := core.Create(core.Config{})
	if _, ok := sim.ConstructInitial(fresh, d, step, maxLevel, nil); !ok {
		t.Fatal("ConstructInitial declined a fresh PM-octree")
	}
	fresh.Persist()
	s := ingestSet{digest: commitDigest(fresh)}
	fresh.ForEachLeaf(func(c morton.Code, data [core.DataWords]float64) bool {
		s.codes = append(s.codes, c)
		s.data = append(s.data, data)
		return true
	})
	return s
}

// TestConstructReuseChaosSoak is TestConstructChaosSoak on a used arena:
// the cut construct's run lands on an extent GC freed, not on fresh space.
// Sets a, b, c and d ingest in turn into one tree; a is the largest, so
// once b's commit frees it, c's run fits in a's old extent below the high
// water (the dry run checks that the landed high water does not move). A
// torn power cut at every write count of c's construct + persist, two
// tear seeds each, must restore the committed content of b (V(i−1)) or c
// (V(i)), never a hybrid of c's records and a's leftovers; the survivor
// validates and ingests the rest to the fresh constructs' digests.
func TestConstructReuseChaosSoak(t *testing.T) {
	const maxLevel = 6
	d := sim.NewDroplet(sim.DropletConfig{Steps: 40})
	a, b, c, dd := dropletSet(t, d, 32, maxLevel), dropletSet(t, d, 24, maxLevel),
		dropletSet(t, d, 8, maxLevel), dropletSet(t, d, 16, maxLevel)
	ingest := func(tree *core.Tree, s ingestSet) {
		if _, err := tree.ConstructFromCodes(s.codes, s.data, nil, false); err != nil {
			t.Fatal(err)
		}
		tree.Persist()
	}
	landedHW := func(nv *nvbm.Device) uint32 {
		ar, err := pmem.OpenArena(nv)
		if err != nil {
			t.Fatal(err)
		}
		return ar.HighWater()
	}
	warm := func() (*nvbm.Device, core.Config, *core.Tree) {
		nv := nvbm.New(nvbm.NVBM, 0)
		cfg := core.Config{NVBMDevice: nv, VerifyRestore: true}
		tree := core.Create(cfg)
		ingest(tree, a)
		ingest(tree, b)
		return nv, cfg, tree
	}

	// Dry run: count c's writes and check its run reused a's extent.
	nv, _, tree := warm()
	hw, w0 := landedHW(nv), nv.Stats().Writes
	ingest(tree, c)
	writes := int(nv.Stats().Writes - w0)
	if got := landedHW(nv); got != hw {
		t.Fatalf("c's construct moved the landed high water %d -> %d: its run did not reuse freed space", hw, got)
	}

	restored := map[uint64]int{}
	for cut := 0; cut <= writes+1; cut++ {
		for seed := int64(1); seed <= 2; seed++ {
			nv, cfg, tree := warm()
			nv.CutPowerAfterTorn(cut, int64(cut)*7919+seed)
			crashed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if r != nvbm.ErrPowerLost {
							t.Fatalf("cut %d: non-power panic: %v", cut, r)
						}
						crashed = true
					}
				}()
				ingest(tree, c)
			}()
			nv.RestorePower()
			// Power fails at the first access after the countdown, so
			// even a cut after every write dies reading the root store
			// back; only the next countdown completes.
			if crashed != (cut <= writes) {
				t.Fatalf("cut %d of %d writes: crashed %v", cut, writes, crashed)
			}
			rest := []ingestSet{dd}
			if crashed {
				rt, err := core.Restore(cfg)
				if err != nil {
					t.Fatalf("cut %d seed %d: unrecoverable after torn cut: %v", cut, seed, err)
				}
				restored[commitDigest(rt)]++
				switch commitDigest(rt) {
				case b.digest:
					rest = []ingestSet{c, dd}
				case c.digest:
				default:
					t.Fatalf("cut %d seed %d: restored content (digest %016x) matches neither b nor c",
						cut, seed, commitDigest(rt))
				}
				if err := rt.Validate(); err != nil {
					t.Fatalf("cut %d seed %d: restored tree: %v", cut, seed, err)
				}
				tree = rt
			} else if commitDigest(tree) != c.digest {
				t.Fatalf("cut %d: uncut commit diverged from a fresh construct of c", cut)
			}
			for _, s := range rest {
				ingest(tree, s)
				if commitDigest(tree) != s.digest {
					t.Fatalf("cut %d seed %d: ingest after recovery diverged from a fresh construct", cut, seed)
				}
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("cut %d seed %d: final validate: %v", cut, seed, err)
			}
		}
	}
	if restored[b.digest] == 0 || restored[c.digest] == 0 {
		t.Fatalf("degenerate cut sweep: %d cuts restored b, %d restored c", restored[b.digest], restored[c.digest])
	}
	t.Logf("reuse torn-cut sweep over %d writes: %d cuts restored b, %d restored c",
		writes, restored[b.digest], restored[c.digest])
}
