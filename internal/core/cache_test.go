package core

import (
	"slices"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/tile"
)

// bypassRead decodes the octant at r straight from the arena, ignoring
// the decoded cache — the ground truth a cached readOct must match.
func bypassRead(tr *Tree, r Ref) Octant {
	var buf [RecordSize]byte
	tr.arenaFor(r).Read(r.Handle(), buf[:])
	var o Octant
	o.decode(buf[:])
	return o
}

// verifyCacheCoherent walks the working version and checks that every
// octant readOct returns (possibly a cache hit) is bit-identical to the
// record on the device.
func verifyCacheCoherent(t *testing.T, tr *Tree, label string) {
	t.Helper()
	tr.ForEachNode(func(r Ref, o *Octant) bool {
		if want := bypassRead(tr, r); *o != want {
			t.Fatalf("%s: cached octant at %v diverged from device:\ncached: %+v\ndevice: %+v",
				label, r, *o, want)
		}
		return true
	})
	if !tr.committed.IsNil() {
		// The committed version too: its refs are disjoint from the cache's
		// view only when coherence failed.
		var walk func(r Ref)
		walk = func(r Ref) {
			want := bypassRead(tr, r)
			if got := tr.readOct(r); got != want {
				t.Fatalf("%s: committed octant at %v diverged from device:\ncached: %+v\ndevice: %+v",
					label, r, got, want)
			}
			for _, c := range want.Children {
				if !c.IsNil() {
					walk(c)
				}
			}
		}
		walk(tr.committed)
	}
}

// TestCacheCoherence interleaves every mutation class the octree has —
// refinement, data sweeps (walk-driven and index-driven), coarsening,
// balancing, Persist's merge+commit+GC, on-demand GC, Compact, and
// crash restore — and asserts after each that cached reads equal a
// direct device read+decode.
func TestCacheCoherence(t *testing.T) {
	// The cache has one mode: a committed octant is always read from the
	// device, so the subtest name records that committed reads are not
	// served from the cache.
	t.Run("CacheCommittedReads=false", func(t *testing.T) {
		dev := nvbm.New(nvbm.NVBM, 0)
		cfg := Config{
			NVBMDevice:        dev,
			DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
			DRAMBudgetOctants: 256,
			RetainVersions:    1,
		}
		tr := Create(cfg)

		steps := []struct {
			name string
			run  func()
		}{
			{"refine", func() { tr.RefineWhere(sphere(0.4, 0.4, 0.4, 0.3, 0.2), 3) }},
			{"update", func() {
				tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
					d[0] = float64(c) * 0.5
					return true
				})
			}},
			{"updateIndexed", func() {
				tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool {
					d[1] = d[0] + 1
					return true
				})
			}},
			{"persist", func() { tr.Persist() }},
			{"refineDeeper", func() { tr.RefineWhere(sphere(0.6, 0.6, 0.6, 0.25, 0.15), 4) }},
			{"balance", func() { tr.Balance() }},
			{"coarsen", func() {
				tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 3 })
			}},
			{"gc", func() { tr.GC() }},
			{"persistAgain", func() { tr.Persist() }},
			{"indexedAfterPersist", func() {
				tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool {
					d[2] = d[1] * 2
					return true
				})
			}},
			{"compact", func() {
				tr.Persist()
				if _, err := tr.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			}},
		}
		for _, s := range steps {
			s.run()
			verifyCacheCoherent(t, tr, s.name)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}

		if fp := tr.FastPath(); fp.CacheHits == 0 || fp.CacheMisses == 0 {
			t.Errorf("fast path never exercised: %+v", fp)
		}

		// Crash restore: reopen from the device and verify the restored
		// tree's cached reads against its media.
		before := leafSet(tr, tr.CommittedRoot())
		re, _, err := RestoreWithReport(cfg)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		verifyCacheCoherent(t, re, "restore")
		sameLeaves(t, leafSet(re, re.CommittedRoot()), before, "restore")

		// And keep simulating on the restored tree.
		re.RefineWhere(sphere(0.5, 0.5, 0.5, 0.2, 0.2), 3)
		re.Persist()
		verifyCacheCoherent(t, re, "restore+persist")
	})
}

// TestCacheChargePreservation pins the cache's golden-compatibility claim
// mechanically: the cache cannot be turned off, so instead the modeled
// device counters of a workload must be a pure function of the workload —
// a hit charges the same device read a miss would.
func TestCacheChargePreservation(t *testing.T) {
	run := func() (nvbm.Stats, map[morton.Code][DataWords]float64) {
		tr := Create(Config{
			NVBMDevice:        nvbm.New(nvbm.NVBM, 0),
			DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
			DRAMBudgetOctants: 256,
		})
		for s := 0; s < 4; s++ {
			off := 0.3 + 0.1*float64(s)
			tr.RefineWhere(sphere(off, off, off, 0.25, 0.15), 4)
			tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
				d[0] = off
				return true
			})
			tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 4 })
			tr.Balance()
			tr.Persist()
		}
		if tr.FastPath().CacheHits == 0 {
			t.Fatal("the workload never hit the cache; the charge check is idle")
		}
		return tr.NVBMDevice().Stats(), leafSet(tr, tr.CommittedRoot())
	}

	stats1, leaves1 := run()
	stats2, leaves2 := run()
	sameLeaves(t, leaves2, leaves1, "rerun")
	if stats1 != stats2 {
		t.Errorf("device traffic is not a function of the workload:\nfirst:  %+v\nsecond: %+v", stats1, stats2)
	}
}

// leafEntry is one leaf as the index tests compare them.
type leafEntry struct {
	Code morton.Code
	Data [DataWords]float64
}

// walkLeaves is the index oracle: the working version's leaves by a fresh
// tree walk.
func walkLeaves(tr *Tree) []leafEntry {
	var out []leafEntry
	tr.ForEachLeaf(func(c morton.Code, d [DataWords]float64) bool {
		out = append(out, leafEntry{Code: c, Data: d})
		return true
	})
	return out
}

// indexValid reports whether the index reads valid: stamped for the
// current content, with no kernel edit pending (DESIGN.md decision 19).
func (t *Tree) indexValid() bool {
	return t.idx.ValidFor(t.contentSeq) && !(t.lent && t.idx.HasDirty())
}

// storeLeaves lists a leaf-index store's entries in the oracle's form.
func storeLeaves(st *tile.Store) []leafEntry {
	out := make([]leafEntry, st.N())
	for i, c := range st.Codes() {
		out[i] = leafEntry{Code: c, Data: st.Load(i)}
	}
	return out
}

// TestLeafSnapshotInvalidation pins the leaf-index contract: the store
// LeafTiles serves always equals a fresh walk; operations that visit every
// leaf (Refine, Coarsen), Balance, the batch writer and every relocation
// (Persist, C0 eviction) leave the index valid, so serving it walks
// nothing; only the reference and single-leaf paths make it rebuild.
func TestLeafSnapshotInvalidation(t *testing.T) {
	tr := Create(Config{
		NVBMDevice:        nvbm.New(nvbm.NVBM, 0),
		DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
		DRAMBudgetOctants: 64, // small enough that every operation evicts
	})
	// check compares the index with a walk and reports whether serving it
	// took a rebuild.
	check := func(label string, wantRebuild bool) {
		t.Helper()
		before := tr.FastPath()
		snap := storeLeaves(tr.LeafTiles())
		after := tr.FastPath()
		if rebuilt := after.LeafIndexRebuilds != before.LeafIndexRebuilds; rebuilt != wantRebuild {
			t.Fatalf("%s: index rebuilt = %v, want %v", label, rebuilt, wantRebuild)
		}
		if !wantRebuild && after.LeafIndexReuses != before.LeafIndexReuses+1 {
			t.Fatalf("%s: no index reuse recorded", label)
		}
		if want := walkLeaves(tr); !slices.Equal(snap, want) {
			t.Fatalf("%s: index (%d leaves) differs from a fresh walk (%d leaves)", label, len(snap), len(want))
		}
		if got := tr.LeafCount(); got != len(snap) {
			t.Fatalf("%s: LeafCount %d, index holds %d", label, got, len(snap))
		}
	}

	check("created", false)
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 3)
	check("after refine", false)
	check("untouched", false)
	tr.Persist() // picks the hot set: from here on new octants land in C0
	check("after first persist", false)
	tr.RefineWhere(sphere(0.3, 0.3, 0.3, 0.2, 0.1), 5)
	check("after second refine", false)
	if tr.Stats().Merges == 0 {
		t.Fatal("the C0 budget did not force an eviction; the relocation half of the test is idle")
	}
	tr.Balance()
	check("after balance", false)
	tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool { d[0] = float64(c.Level()); return c%3 != 0 })
	check("after indexed sweep", false)
	tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 4 })
	check("after coarsen", false)
	tr.Persist()
	check("after persist", false)
	st := tr.LeafTiles()
	for i := 0; i < st.N(); i += 2 {
		st.F[1][i] = float64(i)
		st.MarkDirty(i)
	}
	tr.ScatterLeafTiles(st) // copy-on-write: every leaf is shared with the commit
	check("after scatter", false)
	tr.GC()
	check("after gc", false)

	// An edit a kernel never scatters is discarded, not served.
	st = tr.LeafTiles()
	st.F[2][0] = -1
	st.MarkDirty(0)
	rebuilds := tr.FastPath().LeafIndexRebuilds
	tr.Balance() // any other use of the index ends the loan
	if got := tr.FastPath().LeafIndexRebuilds; got != rebuilds+1 {
		t.Fatalf("Balance after an unscattered edit rebuilt the index %d times, want 1", got-rebuilds)
	}
	check("after an unscattered edit", false)

	// The reference and single-leaf paths do not maintain the index.
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[0] = 1; return true })
	check("after UpdateLeaves", true)
	leaf := tr.LeafCodesSnapshot()[0]
	tr.UpdateAt(leaf, func(d *[DataWords]float64) { d[2] = 7 })
	check("after UpdateAt", true)
	tr.RefineAt(leaf)
	check("after RefineAt", true)
	// A sweep that changes nothing changes no content.
	tr.UpdateLeaves(func(morton.Code, *[DataWords]float64) bool { return false })
	check("after no-op UpdateLeaves", false)
}

// TestConcurrentCommittedWalk runs ForEachCommittedNode from two
// goroutines at once (run with -race): the committed read path is
// documented side-effect-free — per-call buffers, no access accounting,
// no cache fills — so concurrent digests must be safe and identical.
func TestConcurrentCommittedWalk(t *testing.T) {
	tr := Create(Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.2), 4)
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[0] = float64(c)
		return true
	})
	tr.Persist()

	digest := func() uint64 {
		var h uint64 = 14695981039346656037
		tr.ForEachCommittedNode(func(r Ref, o *Octant) bool {
			h ^= uint64(o.Code)
			h *= 1099511628211
			h ^= f64bits(o.Data[0])
			h *= 1099511628211
			return true
		})
		return h
	}

	want := digest()
	results := make(chan uint64, 2)
	for g := 0; g < 2; g++ {
		go func() { results <- digest() }()
	}
	for g := 0; g < 2; g++ {
		if got := <-results; got != want {
			t.Fatalf("concurrent committed walk digest %x, want %x", got, want)
		}
	}
}
