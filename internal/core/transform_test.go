package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pmoctree/internal/bulk"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

// walkCollect is the tree-walk collectSubtrees that the key-space replay
// replaced, kept as its oracle: every working-version octant in pre-order,
// read from the device charging nothing, offered to its subtree's
// reservoir.
func walkCollect(t *Tree) ([]subtreeInfo, uint8) {
	byRoot := map[morton.Code]*subtreeInfo{}
	var order []morton.Code
	var depth uint8
	t.walk(t.cur, func(_ Ref, o *Octant) bool {
		l := o.Code.Level()
		if l > depth {
			depth = l
		}
		var root morton.Code
		switch {
		case l < t.lsub && o.IsLeaf():
			root = o.Code
		case l < t.lsub:
			return true
		default:
			root = o.Code.AncestorAt(t.lsub)
		}
		info := byRoot[root]
		if info == nil {
			info = &subtreeInfo{root: root}
			byRoot[root] = info
			order = append(order, root)
		}
		info.size++
		if len(info.samples) < t.cfg.NSample {
			info.samples = append(info.samples, o.Code)
		} else if j := t.random().Intn(info.size); j < t.cfg.NSample {
			info.samples[j] = o.Code
		}
		return true
	})
	infos := make([]subtreeInfo, 0, len(order))
	for _, root := range order {
		infos = append(infos, *byRoot[root])
	}
	return infos, depth
}

// selectHotQuadratic is selectHot with the scan for the weakest
// previously-hot candidate that the linear selection replaced.
func selectHotQuadratic(t *Tree, infos []subtreeInfo, oldHot map[morton.Code]bool) map[morton.Code]bool {
	sort.SliceStable(infos, func(i, j int) bool {
		if infos[i].freq != infos[j].freq {
			return infos[i].freq > infos[j].freq
		}
		return infos[i].root < infos[j].root
	})
	budget := t.cfg.DRAMBudgetOctants
	hot := map[morton.Code]bool{}
	used := 0
	for i := range infos {
		in := &infos[i]
		if used+in.size > budget {
			continue
		}
		if in.freq == 0 && !oldHot[in.root] {
			continue
		}
		if !oldHot[in.root] {
			if w, ok := weakestOld(infos, oldHot, hot); ok {
				ratio := float64(in.freq) / math.Max(float64(w), 1)
				if ratio <= t.cfg.TTransform && w > 0 {
					continue
				}
			}
		}
		hot[in.root] = true
		used += in.size
	}
	return hot
}

// weakestOld returns the lowest frequency among previously-hot subtrees not
// yet re-selected.
func weakestOld(infos []subtreeInfo, oldHot, chosen map[morton.Code]bool) (int, bool) {
	best := 0
	found := false
	for i := range infos {
		if oldHot[infos[i].root] && !chosen[infos[i].root] {
			if !found || infos[i].freq < best {
				best = infos[i].freq
				found = true
			}
		}
	}
	return best, found
}

// checkReplay runs the walk oracle and the key-space replay at L_sub lsub
// from the same RNG state and requires identical candidates — roots, sizes
// and sample codes in order — the same depth, and the same RNG state after
// (the next Int63).
func checkReplay(t *testing.T, tr *Tree, lsub uint8, label string) {
	t.Helper()
	const seed = 77
	tr.lsub = lsub
	tr.rng = rand.New(rand.NewSource(seed))
	want, wantDepth := walkCollect(tr)
	wantNext := tr.rng.Int63()
	tr.rng = rand.New(rand.NewSource(seed))
	got, gotDepth := tr.collectSubtrees(tr.transformCodes())
	gotNext := tr.rng.Int63()
	if gotDepth != wantDepth {
		t.Fatalf("%s, L_sub %d: depth %d, walk %d", label, lsub, gotDepth, wantDepth)
	}
	if len(got) != len(want) {
		t.Fatalf("%s, L_sub %d: %d candidates, walk %d", label, lsub, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.root != w.root || g.size != w.size || !slices.Equal(g.samples, w.samples) {
			t.Fatalf("%s, L_sub %d: candidate %d is %v size %d samples %v, walk %v size %d samples %v",
				label, lsub, i, g.root, g.size, g.samples, w.root, w.size, w.samples)
		}
	}
	if gotNext != wantNext {
		t.Fatalf("%s, L_sub %d: RNG stream diverged (next %d, walk %d)", label, lsub, gotNext, wantNext)
	}
}

// checkReplayLevels runs checkReplay at L_sub 0, 1, the tree's own, and at
// and past its depth (every leaf coarser than L_sub).
func checkReplayLevels(t *testing.T, tr *Tree, label string) {
	t.Helper()
	own := tr.lsub
	_, depth := walkCollect(tr)
	for _, l := range []uint8{0, 1, own, depth, depth + 1} {
		checkReplay(t, tr, l, label)
	}
	tr.lsub = own
}

// fuzzCodes derives a leaf-code list from bytes. Each byte is one edit of
// a list that starts as the root leaf: the high three bits choose the edit,
// the low five pick the leaf it applies to. Splits keep the list a
// partition of the domain; the other edits break it in each of the ways
// bulk validation types (duplicate, coverage gap, overlap, out of range).
func fuzzCodes(data []byte) []morton.Code {
	const maxLevel, maxCodes = 6, 4096
	codes := []morton.Code{morton.Root}
	for _, b := range data {
		i := int(b&31) * len(codes) / 32
		c := codes[i]
		switch b >> 5 {
		case 0, 1, 2, 3: // split
			if c.Level() < maxLevel && len(codes)+7 <= maxCodes {
				codes[i] = c.Child(0)
				for k := 1; k < 8; k++ {
					codes = append(codes, c.Child(k))
				}
			}
		case 4: // duplicate
			codes = append(codes, c)
		case 5: // drop: a coverage gap
			if len(codes) > 1 {
				codes = slices.Delete(codes, i, i+1)
			}
		case 6: // add the parent: an overlap
			codes = append(codes, c.Parent())
		case 7: // a level-1 code, with stray bits below its triple when b&24 != 0
			codes = append(codes, morton.Root.Child(int(b&7))|morton.Code(b&24)<<3)
		}
	}
	return codes
}

func TestTransformMatchesWalkOracle(t *testing.T) {
	t.Run("droplet", func(t *testing.T) {
		for maxLevel := uint8(3); maxLevel <= 7; maxLevel++ {
			steps := 12
			if maxLevel == 7 {
				steps = 4
			}
			d := sim.NewDroplet(sim.DropletConfig{Steps: 40})
			for _, ns := range []int{0, 5} {
				tr := Create(Config{DRAMBudgetOctants: 512, NSample: ns, Seed: int64(maxLevel)})
				for s := 1; s <= steps; s++ {
					sim.StepField(tr, d, 3*s, maxLevel)
					tr.SetFeatures(d.Feature(3*s + 1))
					tr.Persist()
					checkReplayLevels(t, tr, fmt.Sprintf("level %d, NSample %d, step %d", maxLevel, ns, 3*s))
				}
			}
		}
	})
	t.Run("bulk", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		built := 0
		for built < 40 {
			data := make([]byte, 1+r.Intn(60))
			for i := range data {
				data[i] = byte(r.Intn(128)) // splits only
			}
			tr := Create(Config{NSample: 1 + r.Intn(12)})
			if _, err := tr.ConstructFromCodes(fuzzCodes(data), nil, nil, r.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
			checkReplayLevels(t, tr, fmt.Sprintf("bulk set %d", built))
			built++
		}
	})
	t.Run("fillers", func(t *testing.T) {
		src := Create(Config{})
		src.RefineWhere(sphere(0.4, 0.5, 0.5, 0.3, 0.08), 5)
		src.Balance()
		codes := slices.Clone(src.LeafCodesSnapshot())
		tr := Create(Config{NSample: 7})
		if _, err := tr.ConstructWithFillers(codes, nil, len(codes)/3, nil); err != nil {
			t.Fatal(err)
		}
		checkReplayLevels(t, tr, "materialized shard")
	})
	t.Run("single leaf", func(t *testing.T) {
		checkReplayLevels(t, Create(Config{}), "root leaf")
	})
	t.Run("invalid index", func(t *testing.T) {
		tr := Create(Config{NSample: 9})
		tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.05), 4)
		tr.Persist()
		tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[0]++; return true })
		checkReplayLevels(t, tr, "after UpdateLeaves")
	})
	t.Run("L_sub changes", func(t *testing.T) {
		mk := func() *Tree {
			tr := Create(Config{DRAMBudgetOctants: 512, Seed: 9})
			tr.RefineWhere(sphere(0.3, 0.6, 0.5, 0.25, 0.06), 5)
			tr.SetFeatures(sphere(0.35, 0.6, 0.5, 0.2, 0.1))
			return tr
		}
		got, want := mk(), mk()
		want.walkOracle = walkCollect
		got.Retarget()
		want.Retarget()
		if got.lsub == 1 {
			t.Fatalf("L_sub stayed 1; the case needs a retarget that moves it")
		}
		if got.lsub != want.lsub || got.depth != want.depth {
			t.Fatalf("L_sub %d depth %d, oracle %d depth %d", got.lsub, got.depth, want.lsub, want.depth)
		}
		if !maps.Equal(got.hot, want.hot) || !maps.Equal(got.trunk, want.trunk) {
			t.Fatalf("hot %v trunk %v, oracle hot %v trunk %v", got.hot, got.trunk, want.hot, want.trunk)
		}
		if g, w := got.random().Int63(), want.random().Int63(); g != w {
			t.Fatalf("RNG stream diverged (next %d, oracle %d)", g, w)
		}
	})
}

// FuzzTransformReplay: for any leaf set bulk construction accepts, at any
// L_sub and reservoir size, the replay equals the walk oracle.
func FuzzTransformReplay(f *testing.F) {
	f.Add([]byte{0x00}, uint8(1), uint8(3), false)
	f.Add([]byte{0x00, 0x01, 0x1f, 0x42, 0x07}, uint8(2), uint8(1), true)
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x05, 0x15, 0x25}, uint8(4), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, lsub, ns uint8, balance bool) {
		tr := Create(Config{NSample: 1 + int(ns%16)})
		if _, err := tr.ConstructFromCodes(fuzzCodes(data), nil, nil, balance); err != nil {
			return
		}
		checkReplay(t, tr, lsub%9, "fuzz")
	})
}

// FuzzConstructFromCodes: bulk construction with balancing either builds a
// tree that validates and is 2:1 balanced, or refuses the input with a
// typed bulk input error. It never panics.
func FuzzConstructFromCodes(f *testing.F) {
	f.Add([]byte{0x00, 0x80}) // duplicate
	f.Add([]byte{0x00, 0xa0}) // coverage gap
	f.Add([]byte{0x00, 0xc0}) // overlap
	f.Add([]byte{0xff})       // out of range
	f.Add([]byte{0x00, 0x1f, 0x3f, 0x5f, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := Create(Config{})
		if _, err := tr.ConstructFromCodes(fuzzCodes(data), nil, nil, true); err != nil {
			if !bulk.IsInputError(err) {
				t.Fatalf("untyped construction error: %v", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if !tr.IsBalanced() {
			t.Fatal("constructed tree violates 2:1 balance")
		}
	})
}

// TestFuzzCodesSeedsHitEachInputError pins the FuzzConstructFromCodes seed
// corpus to the four typed errors.
func TestFuzzCodesSeedsHitEachInputError(t *testing.T) {
	for _, tc := range []struct {
		data []byte
		want any
	}{
		{[]byte{0x00, 0x80}, &bulk.DuplicateCodeError{}},
		{[]byte{0x00, 0xa0}, &bulk.CoverageError{}},
		{[]byte{0x00, 0xc0}, &bulk.OverlapError{}},
		{[]byte{0xff}, &bulk.OutOfRangeError{}},
	} {
		_, err := Create(Config{}).ConstructFromCodes(fuzzCodes(tc.data), nil, nil, true)
		if fmt.Sprintf("%T", err) != fmt.Sprintf("%T", tc.want) {
			t.Errorf("seed %x: error %T (%v), want %T", tc.data, err, err, tc.want)
		}
	}
}

func TestSelectHotMatchesQuadratic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	code := func() morton.Code {
		l := uint8(1 + r.Intn(4))
		n := 1 << l
		return morton.Encode(uint32(r.Intn(n)), uint32(r.Intn(n)), uint32(r.Intn(n)), l)
	}
	for iter := 0; iter < 3000; iter++ {
		seen := map[morton.Code]bool{}
		var infos []subtreeInfo
		for n := 1 + r.Intn(40); len(infos) < n; {
			c := code()
			if seen[c] {
				continue
			}
			seen[c] = true
			infos = append(infos, subtreeInfo{root: c, size: 1 + r.Intn(60), freq: r.Intn(5)})
		}
		oldHot := map[morton.Code]bool{}
		for _, in := range infos {
			if r.Intn(5) < 2 {
				oldHot[in.root] = true
			}
		}
		for k := r.Intn(3); k > 0; k-- {
			oldHot[code()] = true // previously hot, no longer a candidate
		}
		tr := &Tree{cfg: Config{
			DRAMBudgetOctants: 1 + r.Intn(400),
			TTransform:        []float64{0.5, 1, 1.5, 3}[r.Intn(4)],
		}}
		want := selectHotQuadratic(tr, slices.Clone(infos), oldHot)
		if got := tr.selectHot(slices.Clone(infos), oldHot); !maps.Equal(got, want) {
			t.Fatalf("iteration %d: hot %v, quadratic %v", iter, got, want)
		}
	}
}

// TestTransformHistoryMatchesWalkOracle steps the level-5 droplet 40 times
// on two trees, one collecting candidates through the walk oracle, and
// requires the same L_sub, hot set, transformation count and committed
// digest after every Persist, and the same device traffic.
func TestTransformHistoryMatchesWalkOracle(t *testing.T) {
	const maxLevel, steps = 5, 40
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps})
	mk := func() (*Tree, *nvbm.Device) {
		nv := nvbm.New(nvbm.NVBM, 0)
		return Create(Config{NVBMDevice: nv, DRAMBudgetOctants: 512, Seed: 3}), nv
	}
	got, gnv := mk()
	want, wnv := mk()
	want.walkOracle = walkCollect
	for s := 1; s <= steps; s++ {
		label := fmt.Sprintf("step %d", s)
		for _, tr := range []*Tree{got, want} {
			sim.StepField(tr, d, s, maxLevel)
			tr.SetFeatures(d.Feature(s + 1))
			tr.Persist()
		}
		// Device counters first: the digests read the device.
		if g, w := gnv.Stats(), wnv.Stats(); g != w {
			t.Fatalf("%s: device %+v, oracle %+v", label, g, w)
		}
		if !maps.Equal(got.hot, want.hot) || got.lsub != want.lsub {
			t.Fatalf("%s: L_sub %d hot %v, oracle L_sub %d hot %v", label, got.lsub, got.hot, want.lsub, want.hot)
		}
		if g, w := got.Stats().Transforms, want.Stats().Transforms; g != w {
			t.Fatalf("%s: %d transforms, oracle %d", label, g, w)
		}
		if g, w := commitDigest(got), commitDigest(want); g != w {
			t.Fatalf("%s: committed digest %#x, oracle %#x", label, g, w)
		}
	}
}

// TestCollectSubtreesSteadyStateAllocs: with its scratch grown, the replay
// allocates nothing.
func TestCollectSubtreesSteadyStateAllocs(t *testing.T) {
	tr := Create(Config{NSample: 20})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.05), 5)
	tr.Balance()
	tr.lsub = 2
	codes := tr.transformCodes()
	tr.collectSubtrees(codes)
	if avg := testing.AllocsPerRun(10, func() { tr.collectSubtrees(codes) }); avg != 0 {
		t.Errorf("collectSubtrees allocates %.1f times per call on a warmed tree, want 0", avg)
	}
}

// TestTransformIndexRebuilds: the layout pass reads the writer's index and
// never walks while the step paths keep it valid; after a reference-path
// write it re-derives the codes once per Persist, uncharged, and leaves the
// charged rebuild to the next reader.
func TestTransformIndexRebuilds(t *testing.T) {
	const maxLevel = 5
	d := sim.NewDroplet(sim.DropletConfig{Steps: 20})
	nv := nvbm.New(nvbm.NVBM, 0)
	tr := Create(Config{NVBMDevice: nv, DRAMBudgetOctants: 512})
	reg := telemetry.NewRegistry()
	tr.RegisterMetrics(reg, "tree")
	gauge := func() float64 { return reg.Snapshot().Gauges["core.transform.index_rebuilds"] }
	for s := 1; s <= 10; s++ {
		sim.StepFieldPool(tr, d, s, maxLevel, nil)
		tr.SetFeatures(d.Feature(s + 1))
		tr.Persist()
		if n := gauge(); n != 0 {
			t.Fatalf("step %d: %v transform index rebuilds, want 0", s, n)
		}
	}
	for i := 1; i <= 3; i++ {
		tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[1]++; return true })
		leafRebuilds := tr.FastPath().LeafIndexRebuilds
		tr.Persist()
		if n, lr := gauge(), tr.FastPath().LeafIndexRebuilds; n != float64(i) || lr != leafRebuilds {
			t.Fatalf("persist %d after UpdateLeaves: %v transform and %d leaf-index rebuilds, want %d and %d",
				i, n, lr, i, leafRebuilds)
		}
		if tr.idx.ValidFor(tr.contentSeq) {
			t.Fatalf("persist %d: the uncharged rebuild left the index stamped valid", i)
		}
	}
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool { d[1]++; return true })
	before := nv.Stats()
	tr.Retarget()
	if after := nv.Stats(); after != before {
		t.Fatalf("the layout pass's rebuild walk was charged: device %+v, before %+v", after, before)
	}
	reads := nv.Stats().Reads
	tr.LeafCodesSnapshot()
	if nv.Stats().Reads == reads || tr.FastPath().LeafIndexRebuilds == 0 {
		t.Fatal("the next index reader did not pay its charged rebuild walk")
	}
}
