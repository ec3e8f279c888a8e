package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

func tileTestTree() *Tree {
	return Create(Config{
		NVBMDevice:        nvbm.New(nvbm.NVBM, 0),
		DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
		DRAMBudgetOctants: 256,
		RetainVersions:    1,
	})
}

// verifyTilesCoherent borrows the leaf index and checks that every cell
// is bit-identical to a fresh tree walk.
func verifyTilesCoherent(t *testing.T, tr *Tree, label string) {
	t.Helper()
	st := tr.LeafTiles()
	walk := walkLeaves(tr)
	if st.N() != len(walk) {
		t.Fatalf("%s: store holds %d cells, walk found %d", label, st.N(), len(walk))
	}
	codes := st.Codes()
	for i, e := range walk {
		if codes[i] != e.Code {
			t.Fatalf("%s: cell %d code %v, walk %v", label, i, codes[i], e.Code)
		}
		if got := st.Load(i); got != e.Data {
			t.Fatalf("%s: cell %d (%v) = %v, walk %v", label, i, codes[i], got, e.Data)
		}
	}
}

// TestLeafTilesCoherence drives a randomized refine/coarsen/update/persist
// sequence and asserts after every mutation that the lent leaf index is
// bit-identical to a tree walk.
func TestLeafTilesCoherence(t *testing.T) {
	tr := tileTestTree()
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	rng := rand.New(rand.NewSource(9))

	for step := 0; step < 40; step++ {
		switch rng.Intn(5) {
		case 0:
			cx, cy, cz := rng.Float64(), rng.Float64(), rng.Float64()
			tr.RefineWhere(sphere(cx, cy, cz, 0.3, 0.1), uint8(3+rng.Intn(3)))
		case 1:
			min := uint8(3 + rng.Intn(3))
			tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= min })
		case 2:
			k := float64(step)
			tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
				d[rng.Intn(DataWords)] = k + float64(c%97)
				return rng.Intn(3) > 0
			})
		case 3:
			tr.Balance()
		case 4:
			tr.Persist()
		}
		verifyTilesCoherent(t, tr, fmt.Sprintf("step %d", step))
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// sweepTiled runs one flat sweep over the lent leaf index — the kernel shape
// the SoA layout exists for — marking modified cells dirty and scattering.
func sweepTiled(tr *Tree, fn func(c morton.Code, d *[DataWords]float64) bool) int {
	st := tr.LeafTiles()
	codes := st.Codes()
	for i := range codes {
		d := st.Load(i)
		if fn(codes[i], &d) {
			st.Set(i, d)
			st.MarkDirty(i)
		}
	}
	return tr.ScatterLeafTiles(st)
}

// TestScatterBitIdenticalToUpdateLeaves runs the same sweep program
// through the tiled lend/scatter path and through UpdateLeaves on an
// identically built tree, across mutations and a Persist, and asserts the
// meshes stay bit-identical.
func TestScatterBitIdenticalToUpdateLeaves(t *testing.T) {
	tiled, ref := tileTestTree(), tileTestTree()
	build := func(tr *Tree) {
		tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.35, 0.2), 4)
		tr.Balance()
	}
	build(tiled)
	build(ref)

	sweep := func(k float64) func(morton.Code, *[DataWords]float64) bool {
		return func(c morton.Code, d *[DataWords]float64) bool {
			if c%3 == 0 {
				return false // partial sweeps: untouched cells must not scatter
			}
			d[0] = k * float64(c.Level())
			d[1] += 0.25
			return true
		}
	}

	for round := 0; round < 6; round++ {
		k := float64(round + 1)
		nt := sweepTiled(tiled, sweep(k))
		nr := ref.UpdateLeaves(sweep(k))
		if nt != nr {
			t.Fatalf("round %d: tiled sweep wrote %d cells, UpdateLeaves %d", round, nt, nr)
		}
		switch round {
		case 2: // force the COW scatter path: share leaves with a commit
			tiled.Persist()
			ref.Persist()
		case 4: // structural churn between sweeps
			tiled.RefineWhere(sphere(0.3, 0.3, 0.3, 0.2, 0.1), 5)
			ref.RefineWhere(sphere(0.3, 0.3, 0.3, 0.2, 0.1), 5)
		}
		var want [][DataWords]float64
		ref.ForEachLeaf(func(c morton.Code, d [DataWords]float64) bool {
			want = append(want, d)
			return true
		})
		i := 0
		tiled.ForEachLeaf(func(c morton.Code, d [DataWords]float64) bool {
			if d != want[i] {
				t.Fatalf("round %d: leaf %d (%v) = %v, reference %v", round, i, c, d, want[i])
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("round %d: %d leaves vs reference %d", round, i, len(want))
		}
	}
}

// TestTileSteadyStateReuse pins the validity protocol: a scatter re-stamps
// the index and relocation does not touch it, so repeated solve rounds on
// an unchanging mesh pay exactly one tile cut — across commits (every
// scatter after one copies on write) and C0 evictions too.
func TestTileSteadyStateReuse(t *testing.T) {
	tr := tileTestTree()
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.15), 4)

	for round := 0; round < 5; round++ {
		sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool {
			d[0] = float64(round)
			return true
		})
		if round%2 == 0 {
			tr.Persist()
		}
	}
	if tr.Stats().Merges == 0 {
		t.Fatal("no round evicted from C0")
	}
	fp := tr.FastPath()
	if fp.TileRebuilds != 1 {
		t.Fatalf("steady state paid %d tile cuts, want exactly 1 (%d reuses)", fp.TileRebuilds, fp.TileReuses)
	}
	if fp.TileReuses < 4 {
		t.Fatalf("only %d reuses across 5 rounds", fp.TileReuses)
	}
	if fp.TileScatters != 5 || fp.TileScatterBytes == 0 {
		t.Fatalf("scatter counters off: %+v", fp)
	}
	verifyTilesCoherent(t, tr, "after the rounds")

	// A structural mutation changes the leaf set; the next loan recuts.
	tr.RefineWhere(sphere(0.2, 0.2, 0.2, 0.15, 0.1), 5)
	tr.LeafTiles()
	if got := tr.FastPath().TileRebuilds; got != 2 {
		t.Fatalf("refine did not invalidate the store: %d rebuilds", got)
	}
	verifyTilesCoherent(t, tr, "after refine")
}

// TestScatterStaleStorePanics: scattering a store the tree mutated behind
// must panic, not corrupt the mesh.
func TestScatterStaleStorePanics(t *testing.T) {
	tr := tileTestTree()
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	st := tr.LeafTiles()
	st.MarkDirty(0)
	tr.RefineAt(st.Codes()[0]) // mutates behind the store
	defer func() {
		if recover() == nil {
			t.Fatal("ScatterLeafTiles on a stale store did not panic")
		}
	}()
	tr.ScatterLeafTiles(st)
}
