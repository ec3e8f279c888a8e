package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/sim"
	"pmoctree/internal/tile"
)

// dirtyCase picks the leaves one scatter round rewrites, given the mesh's
// leaf codes in Z-order.
type dirtyCase struct {
	name string
	pick func(codes []morton.Code, rng *rand.Rand) func(morton.Code) bool
}

var dirtyCases = []dirtyCase{
	{"none", func([]morton.Code, *rand.Rand) func(morton.Code) bool {
		return func(morton.Code) bool { return false }
	}},
	{"one", func(codes []morton.Code, rng *rand.Rand) func(morton.Code) bool {
		one := codes[rng.Intn(len(codes))]
		return func(c morton.Code) bool { return c == one }
	}},
	{"all", func([]morton.Code, *rand.Rand) func(morton.Code) bool {
		return func(morton.Code) bool { return true }
	}},
	{"subtree", func(codes []morton.Code, rng *rand.Rand) func(morton.Code) bool {
		// Every leaf under one ancestor of a random deep leaf.
		leaf := codes[rng.Intn(len(codes))]
		root := leaf.AncestorAt(leaf.Level() / 2)
		return func(c morton.Code) bool { return c == root || root.IsAncestorOf(c) }
	}},
	{"random", func(_ []morton.Code, rng *rand.Rand) func(morton.Code) bool {
		salt := morton.Code(rng.Intn(7))
		return func(c morton.Code) bool { return (c+salt)%3 != 0 }
	}},
}

// scatterRound rewrites the picked leaves of got through the lent index and
// the batch writer (or, on odd rounds, through UpdateLeavesIndexed — the
// batch writer's other caller) and of want through the reference tree walk,
// then holds the two trees against each other.
func scatterRound(t *testing.T, got, want *Tree, round int, pick func(morton.Code) bool) {
	t.Helper()
	k := float64(round + 1)
	kernel := func(c morton.Code, d *[DataWords]float64) bool {
		if !pick(c) {
			return false
		}
		d[0] = k * float64(c.Level())
		d[1] += 0.25
		d[3] = float64(c % 89)
		return true
	}
	committed := commitDigest(got)
	copies := got.Stats().Copies
	var n int
	if round%2 == 0 {
		n = sweepTiled(got, kernel)
	} else {
		n = got.UpdateLeavesIndexed(kernel)
	}
	if wantN := want.UpdateLeaves(kernel); n != wantN {
		t.Fatalf("round %d: batch wrote %d leaves, reference %d", round, n, wantN)
	}
	if g, w := workingDigest(got), workingDigest(want); g != w {
		t.Fatalf("round %d: working digest %#x, reference %#x", round, g, w)
	}
	if g, w := got.Stats().Copies-copies, want.Stats().Copies-copies; g != w {
		t.Fatalf("round %d: %d COW copies, reference %d", round, g, w)
	}
	if g := commitDigest(got); g != committed {
		t.Fatalf("round %d: scatter changed the committed version (%#x -> %#x)", round, committed, g)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	if !got.indexValid() {
		t.Fatalf("round %d: the batch writer left the index invalid", round)
	}
	if !slices.Equal(storeLeaves(&got.idx), walkLeaves(got)) {
		t.Fatalf("round %d: index differs from a fresh walk", round)
	}
}

// TestScatterMatchesReference holds the batch writer to UpdateLeaves on
// seeded random meshes x dirty subsets x pipelineDepths, under a C0 budget
// small enough that the rounds evict: same content, same COW copies, a
// valid tree, an untouched committed version, a coherent index. Each case
// scatters over a freshly committed mesh (every path shared), again without
// a commit in between (paths in place and in C0), and once more after
// refining behind the scatter.
func TestScatterMatchesReference(t *testing.T) {
	merges := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, dc := range dirtyCases {
			for _, depth := range pipelineDepths {
				t.Run(fmt.Sprintf("mesh%d/%s/depth%d", seed, dc.name, depth), func(t *testing.T) {
					build := func() *Tree {
						tr := Create(Config{DRAMBudgetOctants: 48, Seed: 3, PipelineDepth: depth})
						randomMesh(seed)(tr)
						tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
							*d = constructPayload(c)
							return true
						})
						tr.Balance()
						tr.Persist()
						return tr
					}
					got, want := build(), build()
					defer got.Close()
					defer want.Close()
					rng := rand.New(rand.NewSource(seed))
					for round := 0; round < 5; round++ {
						scatterRound(t, got, want, round, dc.pick(got.LeafCodes(), rng))
						switch round {
						case 1, 3:
							got.Persist()
							want.Persist()
							if g, w := commitDigest(got), commitDigest(want); g != w {
								t.Fatalf("round %d: committed digest %#x, reference %#x", round, g, w)
							}
						case 2:
							p := containing(rng.Float64(), rng.Float64(), rng.Float64())
							got.RefineWhere(p, 6)
							want.RefineWhere(p, 6)
						}
					}
					merges += got.Stats().Merges
				})
			}
		}
	}
	if merges == 0 {
		t.Fatal("no case evicted from C0: the budget is too large for the meshes")
	}
}

// freshBounds is the tiling oracle: the bounds of a store cut from scratch
// over codes.
func freshBounds(codes []morton.Code) [][2]int {
	var fresh tile.Store
	for _, c := range codes {
		fresh.Append(c, [DataWords]float64{})
	}
	fresh.Retile()
	return tileBounds(&fresh)
}

func tileBounds(st *tile.Store) [][2]int {
	out := make([][2]int, st.Tiles())
	for i := range out {
		out[i][0], out[i][1] = st.TileBounds(i)
	}
	return out
}

// TestLeafIndexCoherence drives a random sequence of every operation that
// touches the working version, where it is stored, or the index lent to a
// kernel, and after each one requires that an index claiming to be valid
// equals a fresh tree walk, codes and payload, and that its tile bounds,
// when cut, equal a fresh cut.
func TestLeafIndexCoherence(t *testing.T) {
	for _, depth := range pipelineDepths {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := Config{DRAMBudgetOctants: 48, Seed: 5, PipelineDepth: depth, NVBMDevice: nvbm.New(nvbm.NVBM, 0)}
			tr := Create(cfg)
			defer func() { tr.Close() }()
			rng := rand.New(rand.NewSource(int64(17 + depth)))
			point := func() func(morton.Code) bool {
				return containing(rng.Float64(), rng.Float64(), rng.Float64())
			}
			randomLeaf := func() morton.Code {
				codes := tr.LeafCodes()
				return codes[rng.Intn(len(codes))]
			}
			// edit writes a random field of about a third of the lent
			// index's cells in place, the way tiledSolve does.
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
					k := rng.Float64()
					sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool {
						d[rng.Intn(DataWords)] = k + float64(c%97)
						return rng.Intn(3) > 0
					})
				}},
				{"EditScatter", func() {
					edit()
					tr.ScatterLeafTiles(tr.LeafTiles())
				}},
				{"EditNoScatter", edit},
				{"UpdateLeavesIndexed", func() {
					k := rng.Float64()
					tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool {
						d[1] = k
						return rng.Intn(2) == 0
					})
				}},
				{"UpdateLeaves", func() {
					tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
						d[2]++
						return rng.Intn(4) == 0
					})
				}},
				{"UpdateAt", func() { tr.UpdateAt(randomLeaf(), func(d *[DataWords]float64) { d[0] = rng.Float64() }) }},
				{"RefineAt", func() {
					if leaf := randomLeaf(); leaf.Level() < 7 {
						tr.RefineAt(leaf)
					}
				}},
				{"Evict", func() {
					// Shrink C0 below its contents: the watermark eviction
					// drains hot subtrees, then the budget is restored.
					tr.SetDRAMBudget(1)
					tr.maybeEvict()
					tr.SetDRAMBudget(cfg.DRAMBudgetOctants)
				}},
				{"Persist", func() { tr.Persist() }},
				{"GC", func() { tr.GC() }},
				{"Compact", func() {
					tr.Persist()
					if _, err := tr.Compact(); err != nil {
						t.Fatal(err)
					}
					cfg.NVBMDevice = tr.NVBMDevice()
				}},
				{"Restore", func() {
					tr.Persist()
					tr.Close()
					restored, err := Restore(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tr = restored
				}},
			}
			valid := 0
			const steps = 300
			for step := 0; step < steps; step++ {
				op := ops[rng.Intn(len(ops))]
				op.do()
				label := fmt.Sprintf("step %d (%s)", step, op.name)
				if tr.indexValid() {
					valid++
					if !slices.Equal(storeLeaves(&tr.idx), walkLeaves(tr)) {
						t.Fatalf("%s: the index claims to be valid and differs from a fresh walk", label)
					}
					if tr.idx.Tiled() && !slices.Equal(tileBounds(&tr.idx), freshBounds(tr.idx.Codes())) {
						t.Fatalf("%s: the index's tile bounds differ from a fresh cut", label)
					}
				}
				if got, want := tr.LeafCount(), len(tr.LeafCodes()); got != want {
					t.Fatalf("%s: LeafCount %d, walk counts %d", label, got, want)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			// Twelve of the fifteen operations leave the index valid, and an
			// invalid one stays so until the next Refine or Coarsen walk.
			if valid < steps/2 {
				t.Fatalf("the index was valid after only %d of %d operations", valid, steps)
			}
		})
	}
}

// sweepsOnly hides everything but sim.Mesh, so the step driver falls back
// to SolverSweeps UpdateLeaves tree walks — the reference Solve.
type sweepsOnly struct{ sim.Mesh }

// TestSolveDropletHistoryMatchesSweeps pins the tiled Solve (loan, flat
// sweeps, one batch scatter) to the reference Solve over a 20-step level-5
// droplet run at workers 1, 2 and 4: step
// counts, committed digests and the COW/refine/coarsen counters agree
// step by step.
func TestSolveDropletHistoryMatchesSweeps(t *testing.T) {
	const maxLevel, steps = 5, 20
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	want := Create(Config{DRAMBudgetOctants: 512, Seed: 1})
	type run struct {
		tr   *Tree
		pool *parallel.Pool
	}
	var runs []run
	for _, w := range []int{1, 2, 4} {
		var pool *parallel.Pool
		if w > 1 {
			pool = parallel.NewForced(w)
		}
		runs = append(runs, run{Create(Config{DRAMBudgetOctants: 512, Seed: 1}), pool})
	}
	for s := 1; s <= steps; s++ {
		wc := sim.StepField(sweepsOnly{want}, d, s, maxLevel)
		want.Persist()
		ws := want.Stats()
		for _, r := range runs {
			label := fmt.Sprintf("workers %d, step %d", r.pool.Workers(), s)
			if gc := sim.StepFieldPool(r.tr, d, s, maxLevel, r.pool); gc != wc {
				t.Fatalf("%s: counts %+v, reference %+v", label, gc, wc)
			}
			r.tr.Persist()
			if g, w := commitDigest(r.tr), commitDigest(want); g != w {
				t.Fatalf("%s: committed digest %#x, reference %#x", label, g, w)
			}
			if gs := r.tr.Stats(); gs.Copies != ws.Copies || gs.Refines != ws.Refines || gs.Coarsens != ws.Coarsens {
				t.Fatalf("%s: copies/refines/coarsens %d/%d/%d, reference %d/%d/%d", label,
					gs.Copies, gs.Refines, gs.Coarsens, ws.Copies, ws.Refines, ws.Coarsens)
			}
		}
	}
	for _, r := range runs {
		if fp := r.tr.FastPath(); fp.TileScatters != steps || fp.LeafIndexRebuilds != 0 {
			t.Fatalf("workers %d: %d scatters and %d index rebuild walks in %d steps, want %d and 0",
				r.pool.Workers(), fp.TileScatters, fp.LeafIndexRebuilds, steps, steps)
		}
		if err := r.tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexPathsSteadyStateAllocs: on a warmed tree the batch writer and
// the key-space RefineWhere and CoarsenWhere allocate nothing, whether
// they change nothing or split and collapse a patch of the mesh. The C0
// budget holds the whole mesh, so the patch's octants live in C0 and a
// collapse frees them at once (a working-version NVBM octant waits for GC,
// and the arena would grow).
func TestIndexPathsSteadyStateAllocs(t *testing.T) {
	tr := Create(Config{DRAMBudgetOctants: 1 << 16})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.05), 5)
	tr.Balance()
	tr.Persist() // picks the hot set: every subtree is in C0 from here on
	never := func(morton.Code) bool { return false }
	patch := containing(0.8, 0.5, 0.5)
	adapt := func() {
		if n := tr.RefineWhere(patch, 7); n == 0 {
			t.Fatal("the patch refined nothing")
		}
		if n := tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 5 && patch(c) }); n == 0 {
			t.Fatal("the patch coarsened nothing")
		}
	}
	bump := func() {
		st := tr.LeafTiles()
		for i := 0; i < st.N(); i++ {
			if i%10 < 7 {
				st.F[0][i]++
				st.MarkDirty(i)
			}
		}
		tr.ScatterLeafTiles(st)
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"scatter", bump},
		{"refine nothing", func() { tr.RefineWhere(never, 5) }},
		{"coarsen nothing", func() { tr.CoarsenWhere(never) }},
		{"refine and coarsen a patch", adapt},
	} {
		tc.run() // warm-up: grows scratch, copies shared paths
		if avg := testing.AllocsPerRun(10, tc.run); avg != 0 {
			t.Errorf("%s allocates %.1f times per call on a warmed tree, want 0", tc.name, avg)
		}
	}
	if fp := tr.FastPath(); fp.LeafIndexRebuilds != 0 || fp.TileRebuilds != 1 {
		t.Errorf("%d index rebuild walks and %d tile cuts, want 0 and 1", fp.LeafIndexRebuilds, fp.TileRebuilds)
	}
}
