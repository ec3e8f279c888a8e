package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/bulk"
	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// overlaps reports whether the leaf's half-open cube intersects box: the
// float test the box walk's integer rule replaces.
func overlaps(code morton.Code, box Box) bool {
	x, y, z := code.Center()
	ext := code.Extent()
	min := [3]float64{x - ext/2, y - ext/2, z - ext/2}
	for d := 0; d < 3; d++ {
		if min[d] >= box.Max[d] || box.Min[d] >= min[d]+ext {
			return false
		}
	}
	return true
}

// linearScan is the oracle for the box walk: the region and aggregate scan
// it replaced, which float-tests every leaf under the box's cover octant
// (or the one leaf holding the whole box) in Z-order, refusing the whole
// answer if a filler leaf would be in it.
func linearScan(v *version, q Query, res *Result) error {
	lo, hi, err := q.Box.Cover()
	if err != nil {
		return err
	}
	codes := v.leaves.Codes()
	corner, cover := morton.Encode(lo[0], lo[1], lo[2], morton.MaxLevel), morton.Cover(lo, hi)
	i, err := v.leafAt(corner)
	if err != nil {
		return err
	}
	first, last := i, i
	if codes[i].Level() >= cover.Level() {
		lo, hi := cover.KeySpan()
		first, last = morton.Window(codes, lo, hi)
	}
	for _, f := range v.fillers {
		if c := codes[f]; f >= first && f <= last && q.Span.Contains(c.Key()) && overlaps(c, q.Box) {
			return ErrNotHeld
		}
	}
	agg := &res.Agg
	if q.Class == ClassAgg {
		agg.Min, agg.Max = math.Inf(1), math.Inf(-1)
	}
	for i := first; i <= last; i++ {
		c := codes[i]
		if !q.Span.Contains(c.Key()) || !overlaps(c, q.Box) {
			continue
		}
		if q.Class == ClassRegion {
			res.Hits = append(res.Hits, LeafHit{Code: c, Data: v.leaves.Load(i)})
			continue
		}
		val := v.leaves.F[q.Field][i]
		agg.Count++
		agg.Sum += val
		if val < agg.Min {
			agg.Min = val
		}
		if val > agg.Max {
			agg.Max = val
		}
		ext := c.Extent()
		agg.VolSum += val * ext * ext * ext
	}
	if q.Class == ClassAgg && agg.Count == 0 {
		agg.Min, agg.Max = 0, 0
	}
	return nil
}

// checkScan runs q through the box walk and the linear oracle and requires
// the same error, the same hits in the same order and == on every
// aggregate field; every position the walk yields must overlap the box
// and lie in the filter. It reports whether the oracle refused q as not
// held.
func checkScan(t testing.TB, v *version, q Query) bool {
	t.Helper()
	var got, want Result
	_, gerr := v.scan(q, 0, &got)
	werr := linearScan(v, q, &want)
	if gerr != werr {
		t.Fatalf("%v box %+v span %+v: walk error %v, oracle error %v", q.Class, q.Box, q.Span, gerr, werr)
	}
	if werr != nil {
		return werr == ErrNotHeld
	}
	if !slices.Equal(got.Hits, want.Hits) {
		t.Fatalf("%v box %+v span %+v: walk %d hits, oracle %d (or a different order)", q.Class, q.Box, q.Span, len(got.Hits), len(want.Hits))
	}
	if got.Agg != want.Agg {
		t.Fatalf("agg box %+v span %+v field %d: walk %+v, oracle %+v", q.Box, q.Span, q.Field, got.Agg, want.Agg)
	}
	lo, hi, _ := q.Box.Cover()
	codes := v.leaves.Codes()
	v.leaves.BoxRuns(lo, hi, q.Span.Lo, q.Span.Hi, func(first, last int) {
		for i := first; i <= last; i++ {
			if !q.Span.Contains(codes[i].Key()) || !overlaps(codes[i], q.Box) {
				t.Fatalf("box %+v span %+v: walk yielded %v outside the box or filter", q.Box, q.Span, codes[i])
			}
		}
	})
	return false
}

// cube is the box of exactly octant c.
func cube(c morton.Code) Box {
	x, y, z, l := c.Decode()
	h := 1 / float64(uint64(1)<<l)
	var b Box
	for d, a := range [3]uint32{x, y, z} {
		b.Min[d], b.Max[d] = float64(a)*h, float64(a+1)*h
	}
	return b
}

// scanBoxes draws the oracle test's boxes over a mesh with leaves codes:
// the domain, boxes equal to a leaf or its parent, one MaxLevel cell at a
// leaf's near and far corner, boxes touching Max = 1, boxes straddling the
// mid-planes, and random boxes.
func scanBoxes(rng *rand.Rand, codes []morton.Code) []Box {
	const cell = 1.0 / (1 << morton.MaxLevel)
	boxes := []Box{
		{Max: [3]float64{1, 1, 1}},
		{Min: [3]float64{1 - cell, 1 - cell, 1 - cell}, Max: [3]float64{1, 1, 1}},
		{Min: [3]float64{0.5, 0.5, 0.5}, Max: [3]float64{0.75, 0.625, 1}},
	}
	for i := 0; i < 8; i++ {
		c := codes[rng.Intn(len(codes))]
		b := cube(c)
		boxes = append(boxes, b, cube(c.Parent()),
			Box{Min: b.Min, Max: [3]float64{b.Min[0] + cell, b.Min[1] + cell, b.Min[2] + cell}},
			Box{Min: [3]float64{b.Max[0] - cell, b.Max[1] - cell, b.Max[2] - cell}, Max: b.Max})
		// From this leaf's near faces to another leaf's far faces, so box
		// faces lie on leaf faces under a large cover.
		o := cube(codes[rng.Intn(len(codes))])
		for d := 0; d < 3; d++ {
			b.Min[d], b.Max[d] = min(b.Min[d], o.Min[d]), max(b.Max[d], o.Max[d])
		}
		boxes = append(boxes, b)
	}
	for i := 0; i < 6; i++ {
		var b Box
		for d := 0; d < 3; d++ {
			b.Min[d] = rng.Float64() * 0.95
			b.Max[d] = b.Min[d] + 0.01 + rng.Float64()*(1-b.Min[d]-0.01)
			if rng.Intn(2) == 0 {
				b.Max[d] = 1
			}
		}
		boxes = append(boxes, b)
	}
	for _, r := range []float64{cell, 1e-3, 0.05, 0.3} {
		var b Box
		for d := 0; d < 3; d++ {
			b.Min[d], b.Max[d] = 0.5-r*rng.Float64()-cell, 0.5+r*rng.Float64()+cell
		}
		boxes = append(boxes, b)
		b.Min[1], b.Max[1] = 0.1, 0.2 // straddle x = 0.5 and z = 0.5 only
		boxes = append(boxes, b)
	}
	for i := 0; i < 12; i++ {
		var b Box
		for d := 0; d < 3; d++ {
			b.Min[d] = rng.Float64() * 0.99
			b.Max[d] = b.Min[d] + math.Pow(10, -3*rng.Float64())*(1-b.Min[d])
		}
		boxes = append(boxes, b)
	}
	return boxes
}

// shardBoundary is the first key of the upper half of the domain (root
// child 4), the boundary of the two-shard trees below.
var shardBoundary = morton.Root.Child(4).Key()

// scanFilters draws key filters over a mesh with leaves codes: the full
// range, a leaf's single key, a single key no leaf has, a random range,
// an inverted range, and ranges crossing the shard boundary.
func scanFilters(rng *rand.Rand, codes []morton.Code) []KeyRange {
	k := codes[rng.Intn(len(codes))].Key()
	a, b := codes[rng.Intn(len(codes))].Key(), codes[rng.Intn(len(codes))].Key()
	return []KeyRange{
		FullKeyRange(),
		{Lo: k, Hi: k},
		{Lo: k + 1, Hi: k + 1},
		{Lo: min(a, b), Hi: max(a, b)},
		{Lo: max(a, b), Hi: min(a, b)},
		{Lo: shardBoundary - 1<<20, Hi: shardBoundary + 1<<20},
		{Lo: 0, Hi: shardBoundary - 1},
		{Lo: shardBoundary, Hi: math.MaxUint64},
	}
}

// shardTree builds the tree a materialized shard holds for the keys from
// shardBoundary up, where the droplet's interface is: src's leaves whose
// key spans reach into them, completed by filler leaves (core.FlagFiller)
// tiling the rest of the domain.
func shardTree(t testing.TB, src *core.Tree) *core.Tree {
	t.Helper()
	var codes []morton.Code
	var data [][core.DataWords]float64
	src.ForEachLeaf(func(c morton.Code, d [core.DataWords]float64) bool {
		if _, hi := c.KeySpan(); hi >= shardBoundary {
			codes = append(codes, c)
			data = append(data, d)
		}
		return true
	})
	fillers := bulk.ComplementCover(codes)
	all := append(slices.Clone(codes), fillers...)
	allData := append(data, make([][core.DataWords]float64, len(fillers))...)
	dst := core.Create(core.Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0)})
	if err := dst.AdvanceStepTo(src.CommittedStep()); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ConstructWithFillers(all, allData, len(codes), nil); err != nil {
		t.Fatal(err)
	}
	dst.Persist()
	return dst
}

// scanSnapshot publishes tree and returns its snapshot with the leaf index
// built.
func scanSnapshot(t testing.TB, tree *core.Tree) *Snapshot {
	t.Helper()
	cat, s := publish(t, tree, Config{})
	t.Cleanup(func() { s.Close(); cat.Close() })
	s.LeafCount()
	return s
}

// TestScanMatchesLinearOracle holds the key-space box walk to the linear
// cover-window scan on adaptive droplet meshes at levels 3-6 and on a
// materialized shard tree with fillers, over every box and filter shape of
// scanBoxes and scanFilters, for region and aggregate queries.
func TestScanMatchesLinearOracle(t *testing.T) {
	type mesh struct {
		name string
		s    *Snapshot
	}
	var meshes []mesh
	for level := uint8(3); level <= 6; level++ {
		tree, _ := buildTreeAt(t, 3, level)
		meshes = append(meshes, mesh{"droplet L" + string('0'+rune(level)), scanSnapshot(t, tree)})
		if level == 5 {
			meshes = append(meshes, mesh{"shard L5", scanSnapshot(t, shardTree(t, tree))})
		}
	}
	rng := rand.New(rand.NewSource(31))
	for _, m := range meshes {
		v := m.s.v
		if m.name == "shard L5" && len(v.fillers) == 0 {
			t.Fatal("shard tree has no fillers")
		}
		codes := v.leaves.Codes()
		refused, answered := 0, 0
		for _, box := range scanBoxes(rng, codes) {
			for fi, span := range scanFilters(rng, codes) {
				for _, class := range []Class{ClassRegion, ClassAgg} {
					if checkScan(t, v, Query{Class: class, Box: box, Field: fi % core.DataWords, Span: span}) {
						refused++
					} else {
						answered++
					}
				}
			}
		}
		if m.name == "shard L5" && (refused == 0 || answered == 0) {
			t.Fatalf("shard tree: %d queries refused, %d answered; want both", refused, answered)
		}
	}
}

// FuzzBoxScan holds the box walk to the linear oracle for arbitrary box
// corners and key filters, on a droplet mesh and on a shard tree with
// fillers.
func FuzzBoxScan(f *testing.F) {
	tree, _ := buildTreeAt(f, 3, 5)
	versions := []*version{scanSnapshot(f, tree).v, scanSnapshot(f, shardTree(f, tree)).v}
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint64(0), uint64(math.MaxUint64), false)
	f.Add(0.49, 0.2, 0.49, 0.51, 0.3, 0.51, uint64(0), uint64(math.MaxUint64), true)
	f.Add(0.25, 0.25, 0.25, 0.5, 0.5, 0.5, shardBoundary-1, shardBoundary, true)
	f.Add(0.9, 0.9, 0.9, 1.0, 1.0, 1.0, uint64(1), uint64(0), false)
	f.Add(0.5, 0.0, 0.0, 0.4, 1.0, 1.0, uint64(0), uint64(math.MaxUint64), false)
	f.Fuzz(func(t *testing.T, x0, y0, z0, x1, y1, z1 float64, klo, khi uint64, shard bool) {
		v := versions[0]
		if shard {
			v = versions[1]
		}
		box := Box{Min: [3]float64{x0, y0, z0}, Max: [3]float64{x1, y1, z1}}
		for _, class := range []Class{ClassRegion, ClassAgg} {
			checkScan(t, v, Query{Class: class, Box: box, Field: int(klo % core.DataWords), Span: KeyRange{Lo: klo, Hi: khi}})
		}
	})
}
