package octree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

func TestNewTree(t *testing.T) {
	tr := New()
	if tr.NodeCount() != 1 || tr.LeafCount() != 1 {
		t.Fatalf("counts = %d nodes, %d leaves", tr.NodeCount(), tr.LeafCount())
	}
	if !tr.Root.IsLeaf() {
		t.Error("fresh root is not a leaf")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRefineCoarsen(t *testing.T) {
	tr := New()
	tr.Root.Data = [DataWords]float64{1, 2, 3, 4}
	kids := tr.Refine(tr.Root)
	if tr.NodeCount() != 9 || tr.LeafCount() != 8 {
		t.Fatalf("after refine: %d nodes, %d leaves", tr.NodeCount(), tr.LeafCount())
	}
	for i, k := range kids {
		if k.Data != tr.Root.Data {
			t.Errorf("child %d did not inherit data", i)
		}
		if k.Parent != tr.Root {
			t.Errorf("child %d parent wrong", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	kids[3].Data = [DataWords]float64{9, 2, 3, 4}
	tr.Coarsen(tr.Root)
	if tr.NodeCount() != 1 {
		t.Fatalf("after coarsen: %d nodes", tr.NodeCount())
	}
	if tr.Root.Data[0] != 2 { // (7*1 + 9)/8
		t.Errorf("coarsen average = %v", tr.Root.Data[0])
	}
}

func TestRefineNonLeafPanics(t *testing.T) {
	tr := New()
	tr.Refine(tr.Root)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Refine(tr.Root)
}

func TestCoarsenLeafPanics(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Coarsen(tr.Root)
}

func TestCoarsenNonLeafChildPanics(t *testing.T) {
	tr := New()
	kids := tr.Refine(tr.Root)
	tr.Refine(kids[0])
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Coarsen(tr.Root)
}

func TestFind(t *testing.T) {
	tr := New()
	kids := tr.Refine(tr.Root)
	grand := tr.Refine(kids[2])
	if got := tr.Find(kids[2].Code); got != kids[2] {
		t.Error("Find missed existing child")
	}
	if got := tr.Find(grand[7].Code); got != grand[7] {
		t.Error("Find missed grandchild")
	}
	if got := tr.Find(kids[3].Code.Child(0)); got != nil {
		t.Error("Find invented a node")
	}
	if got := tr.Find(morton.Root); got != tr.Root {
		t.Error("Find missed root")
	}
}

func TestFindLeaf(t *testing.T) {
	tr := New()
	kids := tr.Refine(tr.Root)
	deep := kids[0].Code.Child(0).Child(0)
	if got := tr.FindLeaf(deep); got != kids[0] {
		t.Errorf("FindLeaf(%v) = %v, want %v", deep, got.Code, kids[0].Code)
	}
}

func TestLeafOrderIsZOrder(t *testing.T) {
	tr := New()
	kids := tr.Refine(tr.Root)
	tr.Refine(kids[4])
	codes := tr.LeafCodes()
	if !slices.IsSorted(codes) {
		t.Errorf("leaves not in Z-order: %v", codes)
	}
	if len(codes) != 15 {
		t.Errorf("leaf count = %d", len(codes))
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tr := New()
	tr.Refine(tr.Root)
	visits := 0
	tr.ForEachNode(func(*Node) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Errorf("early stop visited %d", visits)
	}
	visits = 0
	tr.ForEachLeaf(func(*Node) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("leaf early stop visited %d", visits)
	}
}

func TestRefineWhere(t *testing.T) {
	tr := New()
	// Refine around the domain center down to level 3.
	near := func(c morton.Code) bool {
		x, y, z := c.Center()
		dx, dy, dz := x-0.5, y-0.5, z-0.5
		return dx*dx+dy*dy+dz*dz < 0.1
	}
	n := tr.RefineWhere(near, 3)
	if n == 0 {
		t.Fatal("nothing refined")
	}
	// All leaves satisfying the predicate are at max level.
	tr.ForEachLeaf(func(l *Node) bool {
		if near(l.Code) && l.Level() < 3 {
			t.Errorf("leaf %v satisfies pred below max level", l.Code)
		}
		return true
	})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenWhere(t *testing.T) {
	tr := New()
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	if tr.LeafCount() != 64 {
		t.Fatalf("leaves = %d", tr.LeafCount())
	}
	// Coarsen everything back.
	n := tr.CoarsenWhere(func(morton.Code) bool { return true })
	if tr.NodeCount() != 1 {
		t.Errorf("nodes after full coarsen = %d (coarsened %d)", tr.NodeCount(), n)
	}
}

func TestBalanceEnforces2to1(t *testing.T) {
	tr := New()
	// Refine toward the domain center: root -> child 0 -> its child 7 ->
	// its child 7. The resulting level-4 leaves touch the x=0.5 plane,
	// across which sits the level-1 leaf (1,0,0) — a 2:1 violation.
	n := tr.Root
	n = tr.Refine(n)[0]
	for i := 0; i < 3; i++ {
		n = tr.Refine(n)[7]
	}
	if tr.IsBalanced() {
		t.Fatal("tree should start unbalanced")
	}
	refined := tr.Balance()
	if refined == 0 {
		t.Fatal("balance did nothing")
	}
	if !tr.IsBalanced() {
		t.Fatal("tree unbalanced after Balance")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceNoopOnUniform(t *testing.T) {
	tr := New()
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	if n := tr.Balance(); n != 0 {
		t.Errorf("uniform tree balanced with %d refines", n)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tr := New()
	tr.RefineWhere(func(c morton.Code) bool {
		x, _, _ := c.Center()
		return x < 0.3
	}, 3)
	tr.Balance()
	i := 0.0
	tr.ForEachLeaf(func(n *Node) bool {
		n.Data[0] = i
		i++
		return true
	})

	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCount() != tr.NodeCount() {
		t.Fatalf("restored %d nodes, want %d", got.NodeCount(), tr.NodeCount())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same leaves, same data.
	want := map[morton.Code]float64{}
	tr.ForEachLeaf(func(n *Node) bool { want[n.Code] = n.Data[0]; return true })
	got.ForEachLeaf(func(n *Node) bool {
		if want[n.Code] != n.Data[0] {
			t.Errorf("leaf %v data %v, want %v", n.Code, n.Data[0], want[n.Code])
		}
		delete(want, n.Code)
		return true
	})
	if len(want) != 0 {
		t.Errorf("%d leaves missing after restore", len(want))
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot, definitely"))); err == nil {
		t.Error("expected magic error")
	}
	var buf bytes.Buffer
	tr := New()
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(img[:12])); err == nil {
		t.Error("expected truncation error")
	}
}

func TestSnapshotDeviceRoundTrip(t *testing.T) {
	tr := New()
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	dev := nvbm.New(nvbm.NVBM, 0)
	size, err := tr.SnapshotToDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Errorf("snapshot size = %d", size)
	}
	if dev.Stats().Writes == 0 {
		t.Error("snapshot charged no NVBM writes")
	}
	got, err := SnapshotFromDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCount() != tr.NodeCount() {
		t.Errorf("restored %d nodes, want %d", got.NodeCount(), tr.NodeCount())
	}
}

// Property: RefineWhere then CoarsenWhere with the complement returns the
// tree to a validated state with leaves only where the predicate held.
func TestQuickAdaptValidates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cx, cy, cz := r.Float64(), r.Float64(), r.Float64()
		rad := 0.05 + r.Float64()*0.2
		pred := func(c morton.Code) bool {
			x, y, z := c.Center()
			dx, dy, dz := x-cx, y-cy, z-cz
			return dx*dx+dy*dy+dz*dz < rad*rad
		}
		tr := New()
		tr.RefineWhere(pred, 4)
		tr.Balance()
		return tr.Validate() == nil && tr.IsBalanced()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: snapshot round trip preserves node count and leaf set for
// randomly adapted trees.
func TestQuickSnapshotIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		cx, cy := r.Float64(), r.Float64()
		tr.RefineWhere(func(c morton.Code) bool {
			x, y, _ := c.Center()
			return (x-cx)*(x-cx)+(y-cy)*(y-cy) < 0.09
		}, 3)
		var buf bytes.Buffer
		if err := tr.WriteSnapshot(&buf); err != nil {
			return false
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			return false
		}
		return got.NodeCount() == tr.NodeCount() && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
