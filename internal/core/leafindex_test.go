package core

import (
	"slices"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/tile"
)

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
// documented side-effect-free — per-call buffers, no access accounting —
// so concurrent digests must be safe and identical.
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
