package tile

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/octree"
	"pmoctree/internal/parallel"
)

// adaptiveCodes builds a Z-ordered adaptive leaf set: refined around a
// diagonal band, like the interface meshes the workloads produce.
func adaptiveCodes(t testing.TB, level uint8) []morton.Code {
	t.Helper()
	tr := octree.New()
	tr.RefineWhere(func(c morton.Code) bool {
		x, y, z := c.Center()
		d := x + y + z - 1.5
		if d < 0 {
			d = -d
		}
		return d < 0.3
	}, level)
	tr.Balance()
	return tr.LeafCodes()
}

// payloadOf is a distinct payload per code, so a test can tell which leaf
// a value came from.
func payloadOf(c morton.Code) [Words]float64 {
	return [Words]float64{float64(c), float64(c.Level()), -float64(c), 0.5}
}

// filled returns a store holding codes with payloadOf each, tiled.
func filled(codes []morton.Code) *Store {
	var s Store
	for _, c := range codes {
		s.Append(c, payloadOf(c))
	}
	s.Retile()
	return &s
}

// freshCut is the tiling oracle: tile boundaries computed from scratch, a
// new tile at capacity and at every change of the two-levels-up anchor.
func freshCut(codes []morton.Code) [][2]int {
	var out [][2]int
	for lo := 0; lo < len(codes); {
		hi := lo + 1
		for hi < len(codes) && hi-lo < Size && anchorOf(codes[hi]) == anchorOf(codes[lo]) {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

func bounds(s *Store) [][2]int {
	var out [][2]int
	for t := 0; t < s.Tiles(); t++ {
		lo, hi := s.TileBounds(t)
		out = append(out, [2]int{lo, hi})
	}
	return out
}

func TestResetLayout(t *testing.T) {
	codes := adaptiveCodes(t, 5)
	s := filled(codes)

	if s.N() != len(codes) {
		t.Fatalf("N = %d, want %d", s.N(), len(codes))
	}
	if got := s.Codes(); len(got) != len(codes) {
		t.Fatalf("Codes len %d, want %d", len(got), len(codes))
	}
	// Tiles partition [0, n) exactly, never exceed capacity, and never
	// span an anchor boundary.
	covered := 0
	for ti := 0; ti < s.Tiles(); ti++ {
		lo, hi := s.TileBounds(ti)
		if hi <= lo {
			t.Fatalf("tile %d empty: [%d, %d)", ti, lo, hi)
		}
		if hi-lo > Size {
			t.Fatalf("tile %d holds %d cells, capacity %d", ti, hi-lo, Size)
		}
		if lo != covered {
			t.Fatalf("tile %d starts at %d, want %d (gap or overlap)", ti, lo, covered)
		}
		a := anchorOf(codes[lo])
		for i := lo; i < hi; i++ {
			if anchorOf(codes[i]) != a {
				t.Fatalf("tile %d spans anchors %v and %v", ti, a, anchorOf(codes[i]))
			}
		}
		covered = hi
	}
	if covered != len(codes) {
		t.Fatalf("tiles cover %d cells, want %d", covered, len(codes))
	}

	// Histogram sums back to the tile and cell counts.
	hist := s.OccupancyHistogram()
	tiles, cells := 0, 0
	for k, n := range hist {
		tiles += n
		cells += k * n
	}
	if tiles != s.Tiles() || cells != s.N() {
		t.Fatalf("histogram sums to %d tiles / %d cells, want %d / %d", tiles, cells, s.Tiles(), s.N())
	}
	if occ := s.Occupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy %v out of (0, 1]", occ)
	}
}

func TestUniformMeshPacksFullTiles(t *testing.T) {
	tr := octree.New()
	tr.RefineWhere(func(morton.Code) bool { return true }, 4)
	s := filled(tr.LeafCodes())
	// 16^3 uniform cells = 4096, all same level: every tile must be full.
	hist := s.OccupancyHistogram()
	if hist[Size] != s.Tiles() {
		t.Fatalf("uniform mesh: %d full tiles of %d total; histogram %v", hist[Size], s.Tiles(), hist)
	}
	if s.Occupancy() != 1 {
		t.Fatalf("uniform mesh occupancy %v, want 1", s.Occupancy())
	}
}

func TestDirtyFlags(t *testing.T) {
	codes := adaptiveCodes(t, 4)
	s := filled(codes)
	s.ClearDirty()
	marks := []int{0, 3, len(codes) - 1}
	for _, i := range marks {
		s.MarkDirty(i)
	}
	var got []int
	s.ForEachDirty(func(i int) { got = append(got, i) })
	if !slices.Equal(got, marks) {
		t.Fatalf("dirty cells %v, want %v", got, marks)
	}
	if !s.HasDirty() {
		t.Fatal("HasDirty false with marks set")
	}
	s.ClearDirty()
	if s.HasDirty() {
		t.Fatal("HasDirty after clear")
	}
	// ClearDirty sizes the flags to a grown leaf set.
	s.Append(codes[0], payloadOf(codes[0]))
	s.ClearDirty()
	s.MarkDirty(s.N() - 1)
	got = got[:0]
	s.ForEachDirty(func(i int) { got = append(got, i) })
	if !slices.Equal(got, []int{s.N() - 1}) {
		t.Fatalf("dirty cells after growth %v, want [%d]", got, s.N()-1)
	}
}

func TestStamping(t *testing.T) {
	s := filled(adaptiveCodes(t, 3))
	if s.ValidFor(0) {
		t.Fatal("fresh store valid before Stamp")
	}
	s.Stamp(7)
	if !s.ValidFor(7) || s.ValidFor(8) {
		t.Fatal("stamp mismatch")
	}
	s.Invalidate()
	if s.ValidFor(7) {
		t.Fatal("Invalidate kept the stamp")
	}
}

// TestCloneLeaves: a clone holds the same leaves and payload in storage of
// its own, and nothing derived: no tiles, no stamp.
func TestCloneLeaves(t *testing.T) {
	codes := adaptiveCodes(t, 4)
	s := filled(codes)
	s.Stamp(3)
	c := s.CloneLeaves()
	if !slices.Equal(c.Codes(), codes) {
		t.Fatal("clone codes differ")
	}
	for i := range codes {
		if c.Load(i) != s.Load(i) {
			t.Fatalf("cell %d: clone payload %v, store %v", i, c.Load(i), s.Load(i))
		}
	}
	if c.Tiles() != 0 || c.ValidFor(3) {
		t.Fatal("clone carries tile bounds or a stamp")
	}
	// Edits of the source must not show in the clone, and growing one
	// field of the clone must not overwrite the next one's first cell.
	s.Set(0, [Words]float64{9, 9, 9, 9})
	s.codes[1] = 0
	c.Append(morton.Root, payloadOf(morton.Root))
	if c.Load(0) != payloadOf(codes[0]) || c.Codes()[1] != codes[1] {
		t.Fatal("clone shares storage with its source or across fields")
	}
}

// TestRunTileRangesCoverage: every tile is handed out exactly once, chunk
// boundaries are tile boundaries, and parallel scheduling covers the same
// set as serial.
func TestRunTileRangesCoverage(t *testing.T) {
	s := filled(adaptiveCodes(t, 5))
	for _, workers := range []int{1, 4} {
		var pool *parallel.Pool
		if workers > 1 {
			// Forced width: real goroutines even on single-CPU machines,
			// so -race sees the concurrent chunk handout.
			pool = parallel.NewForced(workers)
		}
		seen := make([]int32, s.Tiles())
		var mu sync.Mutex
		s.RunTileRanges(pool, 1, func(lo, hi int) {
			mu.Lock()
			for ti := lo; ti < hi; ti++ {
				seen[ti]++
			}
			mu.Unlock()
		})
		for ti, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: tile %d scheduled %d times", workers, ti, n)
			}
		}
	}
}

// TestSetLoadRoundTrip: SoA storage round-trips per-cell records.
func TestSetLoadRoundTrip(t *testing.T) {
	codes := adaptiveCodes(t, 4)
	s := filled(codes)
	rng := rand.New(rand.NewSource(42))
	want := make([][Words]float64, len(codes))
	for i := range want {
		for w := 0; w < Words; w++ {
			want[i][w] = rng.NormFloat64()
		}
		s.Set(i, want[i])
	}
	for i := range want {
		if got := s.Load(i); got != want[i] {
			t.Fatalf("cell %d: %v, want %v", i, got, want[i])
		}
	}
	// The flat slices alias the same storage.
	for w := 0; w < Words; w++ {
		for i := range want {
			if s.F[w][i] != want[i][w] {
				t.Fatalf("F[%d][%d] = %v, want %v", w, i, s.F[w][i], want[i][w])
			}
		}
	}
}

// checkContents holds the store to codes with payloadOf each.
func checkContents(t *testing.T, label string, s *Store, codes []morton.Code) {
	t.Helper()
	if !slices.Equal(s.Codes(), codes) {
		t.Fatalf("%s: codes %v, want %v", label, s.Codes(), codes)
	}
	for w := 0; w < Words; w++ {
		if len(s.F[w]) != len(codes) {
			t.Fatalf("%s: field %d holds %d cells, want %d", label, w, len(s.F[w]), len(codes))
		}
	}
	for i, c := range codes {
		if got := s.Load(i); got != payloadOf(c) {
			t.Fatalf("%s: cell %d (%v) = %v, want %v", label, i, c, got, payloadOf(c))
		}
	}
}

// TestAppendTruncateGrow: the leaf-set edits a tree walk makes — emit in
// Z-order, pop a collapsed sibling group, reserve room for a known count.
func TestAppendTruncateGrow(t *testing.T) {
	codes := adaptiveCodes(t, 3)
	var s Store
	for i, c := range codes {
		s.Append(c, payloadOf(c))
		if s.N() != i+1 {
			t.Fatalf("after %d appends N = %d", i+1, s.N())
		}
	}
	checkContents(t, "append", &s, codes)

	s.Truncate(len(codes) - 8)
	checkContents(t, "truncate", &s, codes[:len(codes)-8])
	s.Append(codes[len(codes)-8], payloadOf(codes[len(codes)-8]))
	checkContents(t, "append after truncate", &s, codes[:len(codes)-7])
	s.Truncate(0)
	checkContents(t, "truncate to empty", &s, nil)

	s.Grow(3 * len(codes))
	if c := cap(s.Codes()); c < 3*len(codes) {
		t.Fatalf("Grow(%d) left capacity %d", 3*len(codes), c)
	}
	before := &s.Codes()[:1][0]
	for _, c := range codes {
		s.Append(c, payloadOf(c))
	}
	if &s.Codes()[0] != before {
		t.Fatal("appends within the grown capacity reallocated")
	}
	checkContents(t, "append after grow", &s, codes)
}

// refinePayload is the refinement oracle: each new leaf carries the
// payload of the old leaf equal to or containing it.
func refinePayload(t *testing.T, old []morton.Code, c morton.Code) [Words]float64 {
	t.Helper()
	for _, o := range old {
		if o == c || o.IsAncestorOf(c) {
			return payloadOf(o)
		}
	}
	t.Fatalf("%v is covered by no old leaf", c)
	return [Words]float64{}
}

// splitAt returns codes with the leaves at the given positions replaced by
// their children (and, for deep, the first child split once more).
func splitAt(codes []morton.Code, deep bool, pos ...int) []morton.Code {
	var out []morton.Code
	for i, c := range codes {
		if !slices.Contains(pos, i) {
			out = append(out, c)
			continue
		}
		for k := 0; k < 8; k++ {
			ch := c.Child(k)
			if deep && k == 0 {
				for g := 0; g < 8; g++ {
					out = append(out, ch.Child(g))
				}
				continue
			}
			out = append(out, ch)
		}
	}
	return out
}

// TestRefineInPlace: the back-to-front in-place expansion Balance applies.
// Splitting the last leaf makes old position i equal new position j: the
// cell is read as the old leaf and overwritten by its first child in the
// same step, and the next step must not mistake the child for a leaf.
func TestRefineInPlace(t *testing.T) {
	codes := adaptiveCodes(t, 2)
	last := len(codes) - 1
	cases := []struct {
		name   string
		leaves []morton.Code
	}{
		{"unchanged", codes},
		{"first", splitAt(codes, false, 0)},
		{"last (i == j)", splitAt(codes, false, last)},
		{"middle", splitAt(codes, false, last/2)},
		{"several", splitAt(codes, false, 1, 5, last/2, last-1)},
		{"two levels", splitAt(codes, true, 0, last/3, last)},
		{"all", splitAt(codes, false, func() []int {
			var all []int
			for i := range codes {
				all = append(all, i)
			}
			return all
		}()...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := filled(codes)
			s.Refine(slices.Clone(c.leaves))
			if !slices.Equal(s.Codes(), c.leaves) {
				t.Fatalf("refined codes differ from the target leaves")
			}
			for i, code := range c.leaves {
				if got, want := s.Load(i), refinePayload(t, codes, code); got != want {
					t.Fatalf("cell %d (%v) = %v, want %v", i, code, got, want)
				}
			}
		})
	}
}

// TestCoarsenInverseOfRefine: Coarsen merging exactly the groups a
// refinement split gives back the leaves before it, each merged leaf
// carrying the sum of its children's payload in child order divided by 8
// (cascading through two levels), and asks about every complete group once.
func TestCoarsenInverseOfRefine(t *testing.T) {
	codes := adaptiveCodes(t, 2)
	last := len(codes) - 1
	for _, c := range []struct {
		name string
		deep bool
		pos  []int
	}{
		{"first", false, []int{0}},
		{"last", false, []int{last}},
		{"several", false, []int{1, 5, last / 2, last - 1}},
		{"two levels", true, []int{0, last / 3, last}},
	} {
		t.Run(c.name, func(t *testing.T) {
			leaves := splitAt(codes, c.deep, c.pos...)
			isLeaf := map[morton.Code]bool{}
			for _, l := range leaves {
				isLeaf[l] = true
			}
			var mean func(morton.Code) [Words]float64
			mean = func(p morton.Code) [Words]float64 {
				if isLeaf[p] {
					return payloadOf(p)
				}
				var sum [Words]float64
				for k := 0; k < 8; k++ {
					v := mean(p.Child(k))
					for w := range sum {
						sum[w] += v[w]
					}
				}
				for w := range sum {
					sum[w] /= 8
				}
				return sum
			}
			s := filled(leaves)
			var asked []morton.Code
			if n := s.Coarsen(func(p morton.Code) bool { asked = append(asked, p); return false }); n != 0 || !slices.Equal(s.Codes(), leaves) {
				t.Fatalf("merging nothing merged %d groups", n)
			}
			var groups []morton.Code // every parent of eight leaves
			for _, l := range leaves {
				if l.Level() == 0 || l.ChildIndex() != 7 {
					continue
				}
				p, complete := l.Parent(), true
				for k := 0; k < 8; k++ {
					complete = complete && isLeaf[p.Child(k)]
				}
				if complete {
					groups = append(groups, p)
				}
			}
			slices.Sort(asked)
			if !slices.Equal(asked, groups) {
				t.Fatalf("asked about %v, want every complete group once: %v", asked, groups)
			}
			split := map[morton.Code]bool{}
			for _, i := range c.pos {
				split[codes[i]] = true
				if c.deep {
					split[codes[i].Child(0)] = true
				}
			}
			n := s.Coarsen(func(p morton.Code) bool { return split[p] })
			if n != len(split) || !slices.Equal(s.Codes(), codes) {
				t.Fatalf("merged %d groups into %d leaves, want %d into %d", n, s.N(), len(split), len(codes))
			}
			for i, code := range codes {
				if got, want := s.Load(i), mean(code); got != want {
					t.Fatalf("cell %d (%v) = %v, want %v", i, code, got, want)
				}
			}
		})
	}
}

// bruteFind is the search oracle: the position of the leaf holding p's
// first MaxLevel cell by linear scan, or -1.
func bruteFind(codes []morton.Code, p morton.Code) int {
	first := p&^0x3f | morton.MaxLevel
	for i, c := range codes {
		if c.Contains(first) {
			return i
		}
	}
	return -1
}

// TestFindWindowMatchesBruteForce holds the key-space toolkit's point and
// window search over a store's codes to a linear scan, on a full leaf set
// and on a gapped one (every third leaf dropped, as a shard holds a
// subset): probes before the first leaf, in a gap, inside leaves, split
// among finer leaves, a window over everything and empty windows.
func TestFindWindowMatchesBruteForce(t *testing.T) {
	full := adaptiveCodes(t, 4)
	var gapped []morton.Code
	for i, c := range full {
		if i%3 != 0 {
			gapped = append(gapped, c)
		}
	}
	rng := rand.New(rand.NewSource(3))
	const top = 1<<morton.MaxLevel - 1
	for _, set := range []struct {
		name  string
		codes []morton.Code
	}{{"full", full}, {"gapped", gapped}} {
		s := filled(set.codes)
		codes := s.Codes()
		keys := []uint64{0, math.MaxUint64}
		probes := []morton.Code{morton.Root, morton.Encode(top, top, top, morton.MaxLevel)}
		for _, c := range full {
			lo, hi := c.KeySpan()
			keys = append(keys, lo, hi, lo+(hi-lo)/2)
			probes = append(probes, c, c.Parent(), morton.Code(hi))
			if c.Level() < morton.MaxLevel {
				probes = append(probes, c.Child(7))
			}
		}
		for i := 0; i < 200; i++ {
			keys = append(keys, rng.Uint64())
			probes = append(probes, morton.Encode(rng.Uint32()&top, rng.Uint32()&top, rng.Uint32()&top, morton.MaxLevel))
		}
		for _, p := range probes {
			want := bruteFind(set.codes, p)
			i, ok := morton.Container(codes, p)
			if want >= 0 {
				if i != want || ok != set.codes[want].Contains(p) {
					t.Fatalf("%s: Container(%v) = %d, %v; want %d", set.name, p, i, ok, want)
				}
				continue
			}
			if ok {
				t.Fatalf("%s: Container(%v) = %d inside a leaf, the scan finds none", set.name, p, i)
			}
			// Not held: i is the last leaf before p, -1 when p precedes
			// the first leaf.
			wantI := -1
			for j, c := range set.codes {
				if c>>6 <= p>>6 {
					wantI = j
				}
			}
			if i != wantI {
				t.Fatalf("%s: Container(%v) = %d, want predecessor %d", set.name, p, i, wantI)
			}
		}

		spans := [][2]uint64{{0, math.MaxUint64}, {5, 4}}
		for i := 0; i < 300; i++ {
			a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
			spans = append(spans, [2]uint64{min(a, b), max(a, b)})
		}
		for _, sp := range spans {
			first, last := morton.Window(codes, sp[0], sp[1])
			var want []int
			for j, c := range set.codes {
				if k := uint64(c); k >= sp[0] && k <= sp[1] {
					want = append(want, j)
				}
			}
			if len(want) == 0 {
				if last >= first {
					t.Fatalf("%s: Window(%d, %d) = [%d, %d], want empty", set.name, sp[0], sp[1], first, last)
				}
				continue
			}
			if first != want[0] || last != want[len(want)-1] {
				t.Fatalf("%s: Window(%d, %d) = [%d, %d], want [%d, %d]", set.name, sp[0], sp[1], first, last, want[0], want[len(want)-1])
			}
		}
		if first, last := morton.Window(codes, 0, math.MaxUint64); first != 0 || last != s.N()-1 {
			t.Fatalf("%s: a window over every key is [%d, %d] of %d leaves", set.name, first, last, s.N())
		}
	}
	var empty Store
	if i, ok := morton.Container(empty.Codes(), morton.Root); i != -1 || ok {
		t.Fatalf("empty store: Container = %d, %v", i, ok)
	}
}

// collapsible returns the position of a random complete sibling group of
// leaves in codes, or -1.
func collapsible(codes []morton.Code, rng *rand.Rand) int {
	var groups []int
	for i := 0; i+8 <= len(codes); i++ {
		if c := codes[i]; c.Level() > 0 && c.ChildIndex() == 0 && codes[i+7] == c.Parent().Child(7) {
			groups = append(groups, i)
		}
	}
	if len(groups) == 0 {
		return -1
	}
	return groups[rng.Intn(len(groups))]
}

// TestTileBoundsMatchFreshCut applies a random sequence of leaf-set edits
// and requires, after each one and a Retile, bounds equal to a cut from
// scratch — whether Retile recut them or kept them because the edit left
// the codes as they were.
func TestTileBoundsMatchFreshCut(t *testing.T) {
	base := adaptiveCodes(t, 4)
	rng := rand.New(rand.NewSource(11))
	s := filled(base)
	cur := slices.Clone(base)
	kept := 0
	ran := map[string]int{}
	for step := 0; step < 400; step++ {
		var op string
		switch rng.Intn(7) {
		case 0: // a walk re-emitting the same leaves
			op = "re-emit"
			s.Truncate(0)
			for _, c := range cur {
				s.Append(c, payloadOf(c))
			}
		case 1: // re-emit a tail after a truncate
			op = "re-emit tail"
			n := rng.Intn(len(cur) + 1)
			s.Truncate(n)
			for _, c := range cur[n:] {
				s.Append(c, payloadOf(c))
			}
		case 2: // a coarsening pop: eight siblings become their parent
			op = "collapse"
			i := collapsible(cur, rng)
			if i < 0 {
				continue
			}
			parent := cur[i].Parent()
			tail := slices.Clone(cur[i+8:])
			s.Truncate(i)
			s.Append(parent, payloadOf(parent))
			for _, c := range tail {
				s.Append(c, payloadOf(c))
			}
			cur = append(append(cur[:i], parent), tail...)
		case 3: // in-place refinement
			op = "refine"
			if len(cur) > 3000 {
				continue
			}
			j := rng.Intn(len(cur))
			if cur[j].Level() >= morton.MaxLevel-1 {
				continue
			}
			cur = splitAt(cur, false, j)
			s.Refine(slices.Clone(cur))
		case 4: // a payload edit, the leaf set untouched
			op = "payload"
			s.F[rng.Intn(Words)][rng.Intn(len(cur))] = rng.Float64()
		case 5: // truncate and stop
			op = "shrink"
			n := len(cur) - rng.Intn(4)
			s.Truncate(n)
			cur = cur[:n]
		case 6: // a refine walk and a coarsen walk between two cuts: one
			// split and one collapse leave the count, not the codes
			op = "split+collapse"
			i := collapsible(cur, rng)
			if i < 0 {
				continue
			}
			next := append(slices.Clone(cur[:i]), cur[i].Parent())
			next = append(next, cur[i+8:]...)
			j := (i + 1 + rng.Intn(len(next)-1)) % len(next)
			if next[j].Level() >= morton.MaxLevel-1 {
				continue
			}
			next = splitAt(next, false, j)
			s.Truncate(0)
			for _, c := range next {
				s.Append(c, payloadOf(c))
			}
			cur = next
		}
		ran[op]++
		if s.Tiled() {
			kept++
		}
		s.Retile()
		label := fmt.Sprintf("step %d (%s)", step, op)
		if !slices.Equal(s.Codes(), cur) {
			t.Fatalf("%s: store codes drifted from the model", label)
		}
		if got, want := bounds(s), freshCut(cur); !slices.Equal(got, want) {
			t.Fatalf("%s: tile bounds %v, fresh cut %v", label, got, want)
		}
	}
	if kept == 0 {
		t.Fatal("no edit kept the bounds: the reuse path went unexercised")
	}
	for _, op := range []string{"re-emit", "re-emit tail", "collapse", "refine", "payload", "shrink", "split+collapse"} {
		if ran[op] == 0 {
			t.Errorf("edit %q never ran", op)
		}
	}
}

// bruteBox is the box-walk oracle: the positions of the leaves overlapping
// the MaxLevel cell box lo..hi with keys in [klo, khi], by linear scan.
func bruteBox(codes []morton.Code, lo, hi [3]uint32, klo, khi uint64) []int {
	var out []int
	for i, c := range codes {
		x, y, z, l := c.Decode()
		shift := morton.MaxLevel - l
		end := uint32(1)<<shift - 1
		in := uint64(c) >= klo && uint64(c) <= khi
		for d, a := range [3]uint32{x << shift, y << shift, z << shift} {
			in = in && a <= hi[d] && a+end >= lo[d]
		}
		if in {
			out = append(out, i)
		}
	}
	return out
}

// TestBoxRunsMatchBruteForce holds the key-space box walk to a linear scan
// on a full leaf set, a gapped one and one refined down to MaxLevel cells
// along a path, for random boxes of every size, boxes equal to a leaf or
// inside one, boxes from one leaf's near faces to another's far faces,
// boxes of a few cells around a leaf's anchor, and key filters cut at leaf spans: the runs come in ascending order and
// cover exactly the scan's positions.
func TestBoxRunsMatchBruteForce(t *testing.T) {
	full := adaptiveCodes(t, 5)
	var gapped []morton.Code
	for i, c := range full {
		if i%3 != 0 {
			gapped = append(gapped, c)
		}
	}
	deep := slices.Clone(full)
	for j := len(deep) / 2; deep[j].Level() < morton.MaxLevel; j += 7 {
		deep = splitAt(deep, false, j)
	}
	const n = 1 << morton.MaxLevel
	rng := rand.New(rand.NewSource(5))
	cells := func(c morton.Code) (lo, hi [3]uint32) {
		x, y, z, l := c.Decode()
		shift := morton.MaxLevel - l
		lo = [3]uint32{x << shift, y << shift, z << shift}
		for d := range hi {
			hi[d] = lo[d] + 1<<shift - 1
		}
		return lo, hi
	}
	for _, set := range []struct {
		name  string
		codes []morton.Code
	}{{"full", full}, {"gapped", gapped}, {"deep", deep}} {
		s := filled(set.codes)
		for trial := 0; trial < 800; trial++ {
			var lo, hi [3]uint32
			switch trial % 4 {
			case 0: // a random box of any size
				for d := 0; d < 3; d++ {
					a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					lo[d], hi[d] = min(a, b), max(a, b)
				}
			case 1: // exactly one leaf's cells, or one of its descendants'
				c := set.codes[rng.Intn(len(set.codes))]
				for c.Level() < morton.MaxLevel && rng.Intn(3) > 0 {
					c = c.Child(rng.Intn(8))
				}
				lo, hi = cells(c)
			case 2: // one leaf's near faces to another's far faces
				alo, ahi := cells(set.codes[rng.Intn(len(set.codes))])
				blo, bhi := cells(set.codes[rng.Intn(len(set.codes))])
				for d := range lo {
					lo[d], hi[d] = min(alo[d], blo[d]), max(ahi[d], bhi[d])
				}
			default: // a few cells around a leaf's anchor, half the time the deepest leaf's
				c := set.codes[rng.Intn(len(set.codes))]
				if rng.Intn(2) == 0 {
					c = slices.MaxFunc(set.codes, func(a, b morton.Code) int { return int(a.Level()) - int(b.Level()) })
				}
				a, _ := cells(c)
				for d := range lo {
					l := max(0, min(int(a[d])+rng.Intn(5)-2, n-1))
					lo[d], hi[d] = uint32(l), uint32(min(l+rng.Intn(3), n-1))
				}
			}
			klo, khi := uint64(0), uint64(math.MaxUint64)
			if rng.Intn(4) != 0 {
				a, _ := full[rng.Intn(len(full))].KeySpan()
				_, b := full[rng.Intn(len(full))].KeySpan()
				klo, khi = min(a, b), max(a, b)
			}
			var got []int
			prev := -2
			s.BoxRuns(lo, hi, klo, khi, func(first, last int) {
				if first > last || first <= prev {
					t.Fatalf("%s: run [%d, %d] after position %d", set.name, first, last, prev)
				}
				for i := first; i <= last; i++ {
					got = append(got, i)
				}
				prev = last
			})
			if want := bruteBox(set.codes, lo, hi, klo, khi); !slices.Equal(got, want) {
				t.Fatalf("%s: box %v..%v keys [%d, %d]: walk %v, scan %v", set.name, lo, hi, klo, khi, got, want)
			}
		}
	}
	var empty Store
	empty.BoxRuns([3]uint32{}, [3]uint32{n - 1, n - 1, n - 1}, 0, math.MaxUint64, func(first, last int) {
		t.Fatalf("empty store yielded [%d, %d]", first, last)
	})
}
