package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
)

// restoreImage reopens a copy of src's device, the way a restart finds it:
// a tree whose leaf index nothing has built.
func restoreImage(t testing.TB, src *core.Tree) *core.Tree {
	t.Helper()
	src.Flush()
	rt, err := core.Restore(core.Config{NVBMDevice: src.NVBMDevice().Clone()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// unbuilt publishes tree's committed version and returns its snapshot,
// failing unless the version arrived without a leaf index.
func unbuilt(t testing.TB, tree *core.Tree) *Snapshot {
	t.Helper()
	cat, s := publish(t, tree, Config{})
	t.Cleanup(func() { s.Close(); cat.Close() })
	if s.v.built.Load() {
		t.Fatal("a restored version arrived with a leaf index")
	}
	return s
}

// descentPoints are the probes of the parity test: every leaf's cell
// centre, random points, the domain's corners and faces at 0 and 1-ε, and
// points outside the domain.
func descentPoints(s *Snapshot, rng *rand.Rand) [][3]float64 {
	var pts [][3]float64
	s.v.pin.ForEachNode(func(_ core.Ref, o *core.Octant) bool {
		if o.IsLeaf() {
			x, y, z := o.Code.Center()
			pts = append(pts, [3]float64{x, y, z})
		}
		return true
	})
	for i := 0; i < 200; i++ {
		pts = append(pts, [3]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	edge := []float64{0, 0.5, math.Nextafter(1, 0)}
	for _, x := range edge {
		for _, y := range edge {
			for _, z := range edge {
				pts = append(pts, [3]float64{x, y, z})
			}
		}
	}
	return append(pts, [3]float64{1, 0.5, 0.5}, [3]float64{0.5, -1e-9, 0.5})
}

// pointAnswer is one point's answer as a client sees it.
type pointAnswer struct {
	hit LeafHit
	err string
}

func askPoint(s *Snapshot, p [3]float64) pointAnswer {
	hit, err := s.Point(p[0], p[1], p[2])
	if err != nil {
		return pointAnswer{err: err.Error()}
	}
	return pointAnswer{hit: hit}
}

// TestDescentMatchesIndex: a point on a version without a leaf index is
// answered by a descent of the pinned tree, on a restored droplet image and
// on a restored materialized shard with fillers. For every probe the
// descent's answer, or its error text, equals the index's once one is
// built; the descent builds nothing, makes exactly level+1 device reads for
// the leaf it ends on, and charges what the index path charges for the
// same answer or the same refusal of a filler leaf.
func TestDescentMatchesIndex(t *testing.T) {
	src, _ := buildTreeAt(t, 3, 5)
	for _, m := range []struct {
		name string
		tree *core.Tree
	}{
		{"droplet", restoreImage(t, src)},
		{"shard", restoreImage(t, shardTree(t, src))},
	} {
		t.Run(m.name, func(t *testing.T) {
			s := unbuilt(t, m.tree)
			dev := m.tree.NVBMDevice()
			pts := descentPoints(s, rand.New(rand.NewSource(13)))
			got := make([]pointAnswer, len(pts))
			cost := make([]nvbm.Stats, len(pts))
			for i, p := range pts {
				before := dev.Stats()
				got[i] = askPoint(s, p)
				cost[i] = dev.Stats().Sub(before)
				if s.v.built.Load() {
					t.Fatalf("point %v built the index", p)
				}
			}
			s.LeafCount()
			answered, refused := 0, 0
			for i, p := range pts {
				before := dev.Stats()
				want := askPoint(s, p)
				wantCost := dev.Stats().Sub(before)
				if got[i] != want {
					t.Fatalf("point %v: descent answered %+v, the index %+v", p, got[i], want)
				}
				cell, err := CellAt(p)
				if err != nil {
					if cost[i].Reads != 0 {
						t.Fatalf("point %v outside the domain read %d octants", p, cost[i].Reads)
					}
					continue
				}
				leaf, err := s.v.leafAt(cell)
				if err != nil {
					t.Fatal(err)
				}
				if n := uint64(s.v.leaves.Codes()[leaf].Level()) + 1; cost[i].Reads != n {
					t.Fatalf("point %v: the descent read %d octants, want level+1 = %d", p, cost[i].Reads, n)
				}
				if want.err != "" {
					refused++
				} else {
					answered++
				}
				if cost[i] != wantCost {
					t.Fatalf("point %v (error %q): the descent charged %+v, the index path %+v", p, want.err, cost[i], wantCost)
				}
			}
			if answered == 0 || (m.name == "shard") != (refused > 0) {
				t.Fatalf("%d points answered, %d refused as not held", answered, refused)
			}
		})
	}
}

// TestDescentThenIndexBatch is the chaos readers' double pass on a
// version without an index: a batch that asks points first answers them
// by descent and builds the index at its first region; the same batch
// again answers everything from the index. The two runs must be
// byte-identical.
func TestDescentThenIndexBatch(t *testing.T) {
	src, _ := buildTreeAt(t, 3, 5)
	full := FullKeyRange()
	batch := []Query{
		{Class: ClassPoint, Point: [3]float64{0.5, 0.5, 0.55}},
		{Class: ClassPoint, Point: [3]float64{0.52, 0.48, 0.7}},
		{Class: ClassPoint, Point: [3]float64{0.1, 0.9, 0.2}},
		{Class: ClassPoint, Point: [3]float64{0.85, 0.15, 0.4}},
		{Class: ClassPoint, Point: [3]float64{0, 0, 0}},
		{Class: ClassPoint, Point: [3]float64{1, 0, 0}},
		{Class: ClassRegion, Box: Box{Min: [3]float64{0.4, 0.4, 0.4}, Max: [3]float64{0.6, 0.6, 0.75}}, Span: full},
		{Class: ClassRegion, Box: Box{Min: [3]float64{0, 0, 0.8}, Max: [3]float64{1, 1, 1}}, Span: full},
		{Class: ClassAgg, Box: Box{Min: [3]float64{0, 0, 0}, Max: [3]float64{1, 1, 1}}, Span: full},
		{Class: ClassAgg, Field: 1, Box: Box{Min: [3]float64{0.3, 0.3, 0.3}, Max: [3]float64{0.7, 0.7, 0.7}}, Span: full},
	}
	run := func(s *Snapshot) string {
		var out strings.Builder
		for _, q := range batch {
			out.WriteString(answerText(s, q) + "\n")
		}
		return out.String()
	}
	for _, tree := range []*core.Tree{restoreImage(t, src), restoreImage(t, shardTree(t, src))} {
		s := unbuilt(t, tree)
		a := run(s)
		if !s.v.built.Load() {
			t.Fatal("the batch's regions did not build the index")
		}
		if b := run(s); a != b {
			t.Fatalf("a batch answered by descent differs from the same batch answered from the index:\n%s\n%s", a, b)
		}
	}
}

// TestDescentOnInteriorOctant: a descent that ends on an interior octant
// has no answer of its own; the query falls back to the index path, which
// builds the index and names the fault, and asking again from the index
// gives the same error.
func TestDescentOnInteriorOctant(t *testing.T) {
	src, _ := buildTree(t, 2)
	tree := restoreImage(t, src)
	// Cut the root's last child out of the image: the cells under it now
	// lie beyond every leaf.
	nv, err := pmem.OpenArena(tree.NVBMDevice())
	if err != nil {
		t.Fatal(err)
	}
	var rec [core.RecordSize]byte
	h := tree.CommittedRoot().Handle()
	nv.Read(h, rec[:])
	const lastChild = 16 + 4*7 // the record's children field, child 7
	clear(rec[lastChild : lastChild+4])
	nv.Write(h, rec[:])

	s := unbuilt(t, tree)
	cell, _ := CellAt([3]float64{0.9, 0.9, 0.9})
	want := fmt.Sprintf("serve: cell %v falls between leaves; version index is inconsistent", cell)
	for pass := 0; pass < 2; pass++ {
		if _, err := s.Point(0.9, 0.9, 0.9); err == nil || err.Error() != want {
			t.Fatalf("pass %d: Point under a cut-out child: %v, want %q", pass, err, want)
		}
		if !s.v.built.Load() {
			t.Fatalf("pass %d: the fallback did not build the index", pass)
		}
	}
}

// TestDescentConcurrentWithBuild (run with -race): readers that descend
// for points while another reader's region builds the index, on one
// version without an index, all get the answers a single reader gets.
func TestDescentConcurrentWithBuild(t *testing.T) {
	src, _ := buildTreeAt(t, 3, 5)
	rng := rand.New(rand.NewSource(5))
	var qs []Query
	for i := 0; i < 64; i++ {
		qs = append(qs, Query{Class: ClassPoint, Point: [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}})
	}
	qs = append(qs, Query{Class: ClassRegion, Box: Box{Min: [3]float64{0.4, 0.4, 0.4}, Max: [3]float64{0.6, 0.6, 0.6}}, Span: FullKeyRange()})
	want := make([]string, len(qs))
	ref := unbuilt(t, restoreImage(t, src))
	for i, q := range qs {
		want[i] = answerText(ref, q)
	}

	s := unbuilt(t, restoreImage(t, src))
	const readers = 4
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			// Each reader starts at another query, so the region that
			// builds the index lands among other readers' descents.
			for k := range qs {
				i := (k + r*len(qs)/readers) % len(qs)
				if got := answerText(s, qs[i]); got != want[i] {
					t.Errorf("reader %d, query %d: %s, want %s", r, i, got, want[i])
				}
			}
		}(r)
	}
	wg.Wait()
}

// answerText is a query's result, or its error, as one comparable string.
func answerText(s *Snapshot, q Query) string {
	res, err := s.Query(nil, q)
	if err != nil {
		return err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	return string(b)
}
