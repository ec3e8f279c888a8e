package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
)

// balanceOracle is the round-by-round fixed point Balance replaced: one
// whole-tree scan collects every leaf with a too-coarse face neighbor (by
// tree walk — findViolators, the same scan IsBalanced uses), each is split
// by its own root-down walk, and the scan repeats until a round finds
// none. Returns the number of refines and of rounds that refined.
func balanceOracle(t *Tree) (refined, rounds int) {
	for {
		violators := t.findViolators()
		if len(violators) == 0 {
			return refined, rounds
		}
		rounds++
		for _, code := range violators {
			// An earlier refine of the batch may have split the leaf.
			if nr, ok := t.refineAtWalk(t.cur, code); ok {
				t.cur = nr
				t.maybeEvict()
				refined++
			}
		}
	}
}

// containing returns the predicate refining the chain of octants that
// contain the point (px, py, pz).
func containing(px, py, pz float64) func(morton.Code) bool {
	return func(c morton.Code) bool {
		x, y, z := c.Center()
		h := c.Extent() / 2
		return x-h <= px && px < x+h && y-h <= py && py < y+h && z-h <= pz && pz < z+h
	}
}

// balanceCase is a mesh the property test balances: the mutations that
// build it (unbalanced) and the minimum number of ripple rounds the oracle
// must need on it.
type balanceCase struct {
	name      string
	build     func(tr *Tree)
	minRounds int
}

var balanceCases = []balanceCase{
	{"faces", func(tr *Tree) {
		// A deep leaf on every domain face, next to level-1 leaves.
		for _, p := range [6][3]float64{
			{0.001, 0.49, 0.49}, {0.999, 0.49, 0.49},
			{0.49, 0.001, 0.49}, {0.49, 0.999, 0.49},
			{0.49, 0.49, 0.001}, {0.49, 0.49, 0.999},
		} {
			tr.RefineWhere(containing(p[0], p[1], p[2]), 5)
		}
	}, 2},
	{"maxlevel", func(tr *Tree) {
		tr.RefineWhere(containing(0.49, 0.49, 0.49), morton.MaxLevel)
	}, 3},
	{"ripple", func(tr *Tree) {
		tr.RefineWhere(containing(0.49, 0.49, 0.49), 6)
	}, 3},
	{"balanced", func(tr *Tree) {
		tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.05), 4)
		tr.Balance()
	}, 0},
}

// randomMesh refines chains toward seeded random points at random depths,
// committing halfway so later splits copy shared paths.
func randomMesh(seed int64) func(tr *Tree) {
	return func(tr *Tree) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			tr.RefineWhere(containing(rng.Float64(), rng.Float64(), rng.Float64()), uint8(2+rng.Intn(6)))
			if i == 5 {
				tr.Persist()
			}
		}
	}
}

// TestBalanceMatchesOracle holds the key-space Balance to the tree-walk
// fixed point it replaced: same leaves with the same inherited payloads,
// same refine count, same content digest, and the independent checks
// (IsBalanced, Validate) pass, at each of pipelineDepths.
func TestBalanceMatchesOracle(t *testing.T) {
	cases := balanceCases
	for seed := int64(1); seed <= 8; seed++ {
		cases = append(cases, balanceCase{fmt.Sprintf("random%d", seed), randomMesh(seed), 0})
	}
	for _, tc := range cases {
		for _, depth := range pipelineDepths {
			t.Run(fmt.Sprintf("%s/depth%d", tc.name, depth), func(t *testing.T) {
				build := func() *Tree {
					tr := Create(Config{DRAMBudgetOctants: 64, Seed: 3, PipelineDepth: depth})
					tc.build(tr)
					tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
						*d = constructPayload(c)
						return true
					})
					return tr
				}
				got, want := build(), build()
				defer got.Close()
				defer want.Close()

				wantN, rounds := balanceOracle(want)
				if rounds < tc.minRounds {
					t.Fatalf("oracle needed %d rounds, case promises >= %d", rounds, tc.minRounds)
				}
				if gotN := got.Balance(); gotN != wantN {
					t.Errorf("Balance refined %d, oracle %d", gotN, wantN)
				}
				if !reflect.DeepEqual(leafSet(got, got.cur), leafSet(want, want.cur)) {
					t.Error("leaf sets differ")
				}
				if g, w := workingDigest(got), workingDigest(want); g != w {
					t.Errorf("working digest %#x, oracle %#x", g, w)
				}
				if !got.IsBalanced() {
					t.Error("IsBalanced false after Balance")
				}
				if err := got.Validate(); err != nil {
					t.Error(err)
				}
				walked := 0
				got.ForEachLeaf(func(morton.Code, [DataWords]float64) bool { walked++; return true })
				if n := got.LeafCount(); n != walked {
					t.Errorf("LeafCount %d, walk counts %d", n, walked)
				}
				got.Persist()
				want.Persist()
				if g, w := commitDigest(got), commitDigest(want); g != w {
					t.Errorf("committed digest %#x, oracle %#x", g, w)
				}
				if again := got.Balance(); again != 0 {
					t.Errorf("second Balance refined %d", again)
				}
			})
		}
	}
}

// oracleMesh is a Tree whose Balance is the oracle's.
type oracleMesh struct{ *Tree }

func (m oracleMesh) Balance() int {
	n, _ := balanceOracle(m.Tree)
	return n
}

// seededMesh is a Tree that counts the Balance calls starting from
// complete seeds (the seeded closure) rather than probing every leaf.
type seededMesh struct {
	*Tree
	seeded *int
}

func (m seededMesh) Balance() int {
	if m.seedSeq == m.topoSeq+1 {
		*m.seeded++
	}
	return m.Tree.Balance()
}

// TestBalanceDropletHistoryMatchesOracle runs the droplet workload twice,
// balancing one tree in key space and the other by the oracle, and pins
// the committed digest and the step counts of all 20 steps against each
// other. After the first step, every key-space Balance ripples from the
// cells Refine and Coarsen recorded.
func TestBalanceDropletHistoryMatchesOracle(t *testing.T) {
	const maxLevel, steps = 5, 20
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	got := Create(Config{DRAMBudgetOctants: 512, Seed: 1})
	want := Create(Config{DRAMBudgetOctants: 512, Seed: 1})
	balanced, seeded := 0, 0
	for s := 1; s <= steps; s++ {
		gc := sim.StepField(seededMesh{got, &seeded}, d, s, maxLevel)
		wc := sim.StepField(oracleMesh{want}, d, s, maxLevel)
		if gc != wc {
			t.Fatalf("step %d: counts %+v, oracle %+v", s, gc, wc)
		}
		balanced += gc.Balanced
		got.Persist()
		want.Persist()
		if g, w := commitDigest(got), commitDigest(want); g != w {
			t.Fatalf("step %d: committed digest %#x, oracle %#x", s, g, w)
		}
	}
	if balanced == 0 {
		t.Fatal("the droplet run never exercised Balance")
	}
	if seeded != steps-1 {
		t.Fatalf("%d of steps 2-%d balanced from recorded seeds, want all", seeded, steps)
	}
	if !got.IsBalanced() {
		t.Fatal("unbalanced after the run")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBalanceAfterUnrecordedChange: a topology change that RefineWhere
// and CoarsenWhere did not record makes the next Balance probe every
// leaf. Each case balances a recorded mesh, leaves a 2:1 violation by
// another path, and Balance must repair it.
func TestBalanceAfterUnrecordedChange(t *testing.T) {
	// chain splits the leaf holding (0.49, 0.49, 0.49) three times: its
	// level-4 neighbors lie across the domain's center planes.
	chain := func(tr *Tree) {
		for i := 0; i < 3; i++ {
			_, o := tr.FindLeaf(morton.Encode(125, 125, 125, 8))
			tr.RefineAt(o.Code)
		}
	}
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, tr *Tree) *Tree
	}{
		{"RefineAt", func(_ *testing.T, tr *Tree) *Tree { chain(tr); return tr }},
		{"walk", func(_ *testing.T, tr *Tree) *Tree {
			tr.refineWhereWalk(containing(0.49, 0.49, 0.49), 7)
			return tr
		}},
		{"construct", func(t *testing.T, tr *Tree) *Tree {
			var codes []morton.Code
			var walk func(c morton.Code)
			walk = func(c morton.Code) {
				if c.Level() < 7 && containing(0.49, 0.49, 0.49)(c) {
					for k := 0; k < 8; k++ {
						walk(c.Child(k))
					}
					return
				}
				codes = append(codes, c)
			}
			walk(morton.Root)
			tr.Persist() // construction starts from a committed state
			if _, err := tr.ConstructFromCodes(codes, nil, nil, false); err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"restore", func(t *testing.T, tr *Tree) *Tree {
			other := Create(Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0)})
			chain(other)
			other.Persist()
			other.Close()
			r, err := Restore(Config{NVBMDevice: other.NVBMDevice()})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := Create(Config{})
			tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 4 }, 4)
			tr.Balance()
			tr = tc.change(t, tr)
			if tr.IsBalanced() {
				t.Fatal("the change left the mesh balanced")
			}
			if tr.Balance() == 0 || !tr.IsBalanced() {
				t.Fatal("Balance did not repair an unrecorded change")
			}
		})
	}
}

// TestBalanceSteadyStateAllocs: with the leaf index valid and the closure
// scratch grown, Balance allocates nothing, on a mesh that is already
// balanced and on the seeded path after a recorded refine and coarsen.
//
// The counts are process-wide, so the collector stays off while the test
// runs: a collection that ends inside a measured Balance wakes the
// runtime's cleanup of unique's maps (linked in through net/netip), and
// that goroutine allocates twice per collection. Turning the collector off
// waits for a running collection to end; the cleanup it wakes runs during
// the warm-up, before any count is taken.
func TestBalanceSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := Create(Config{})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.05), 5)
	tr.Balance()
	tr.Balance() // warm-up: grows the closure scratch to the balanced mesh
	if avg := testing.AllocsPerRun(20, func() {
		if tr.Balance() != 0 {
			t.Fatal("balanced mesh refined")
		}
	}); avg != 0 {
		t.Fatalf("Balance on a balanced mesh allocates %.1f times per call, want 0", avg)
	}

	// A chain to level 7 inside the shell, whose ripple Balance repairs,
	// then collapsed again below level 5, whose collapse Balance may
	// repair too: the mesh cycles, and each cycle balances twice. Each
	// Balance is committed, so the collections keep the arena from
	// growing.
	deep, off := containing(0.71, 0.5, 0.5), func(c morton.Code) bool { return c.Level() >= 5 }
	cycle := func() (allocs uint64, refined int) {
		var ms runtime.MemStats
		balance := func() {
			if tr.seedSeq != tr.topoSeq+1 {
				t.Fatal("Balance after a recorded change took the full path")
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			refined += tr.Balance()
			runtime.ReadMemStats(&ms)
			allocs += ms.Mallocs - before
			tr.Persist()
		}
		tr.RefineWhere(deep, 7)
		balance()
		tr.CoarsenWhere(off)
		balance()
		return allocs, refined
	}
	cycle()
	cycle() // warm-up: grows the seeds and the scratch to the cycle
	// As in testing.AllocsPerRun: other goroutines' allocations would
	// count too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 10; i++ {
		allocs, refined := cycle()
		if refined == 0 {
			t.Fatal("the cycle never rippled")
		}
		if allocs != 0 {
			t.Fatalf("seeded Balance allocates %d times per cycle, want 0", allocs)
		}
	}
}
