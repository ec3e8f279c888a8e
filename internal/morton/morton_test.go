package morton

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRootProperties(t *testing.T) {
	if Root.Level() != 0 {
		t.Errorf("root level = %d", Root.Level())
	}
	if Root.Parent() != Root {
		t.Error("root parent != root")
	}
	if Root.ChildIndex() != 0 {
		t.Error("root child index != 0")
	}
	x, y, z, l := Root.Decode()
	if x != 0 || y != 0 || z != 0 || l != 0 {
		t.Errorf("root decode = (%d,%d,%d) L%d", x, y, z, l)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		l       uint8
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 1, 1},
		{5, 3, 7, 3},
		{100, 200, 300, 9},
		{(1 << 19) - 1, (1 << 19) - 1, (1 << 19) - 1, 19},
	}
	for _, c := range cases {
		code := Encode(c.x, c.y, c.z, c.l)
		x, y, z, l := code.Decode()
		if x != c.x || y != c.y || z != c.z || l != c.l {
			t.Errorf("Encode(%d,%d,%d,%d) decoded to (%d,%d,%d,%d)", c.x, c.y, c.z, c.l, x, y, z, l)
		}
	}
}

func TestEncodePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Encode(0, 0, 0, MaxLevel+1) },
		func() { Encode(2, 0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestParentChildInverse(t *testing.T) {
	c := Encode(5, 3, 7, 3)
	for i := 0; i < 8; i++ {
		child := c.Child(i)
		if child.Parent() != c {
			t.Errorf("child %d parent mismatch", i)
		}
		if child.ChildIndex() != i {
			t.Errorf("child %d index = %d", i, child.ChildIndex())
		}
		if child.Level() != 4 {
			t.Errorf("child level = %d", child.Level())
		}
	}
}

func TestChildCoordinates(t *testing.T) {
	// Child 5 = zbit 1, ybit 0, xbit 1.
	c := Encode(1, 1, 1, 1)
	ch := c.Child(5)
	x, y, z, l := ch.Decode()
	if l != 2 || x != 3 || y != 2 || z != 3 {
		t.Errorf("child 5 of (1,1,1)L1 = (%d,%d,%d)L%d, want (3,2,3)L2", x, y, z, l)
	}
}

func TestChildPanics(t *testing.T) {
	deep := Encode(0, 0, 0, MaxLevel)
	for _, fn := range []func(){
		func() { Root.Child(8) },
		func() { Root.Child(-1) },
		func() { deep.Child(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAncestry(t *testing.T) {
	a := Encode(1, 0, 1, 1)
	d := a.Child(3).Child(6)
	if !a.IsAncestorOf(d) {
		t.Error("grandparent not ancestor")
	}
	if d.IsAncestorOf(a) {
		t.Error("descendant claims ancestry")
	}
	if a.IsAncestorOf(a) {
		t.Error("self is not a strict ancestor")
	}
	if !a.Contains(a) || !a.Contains(d) {
		t.Error("Contains failed")
	}
	sibling := Encode(0, 0, 0, 1)
	if sibling.IsAncestorOf(d) {
		t.Error("non-ancestor claims ancestry")
	}
	if got := d.AncestorAt(1); got != a {
		t.Errorf("AncestorAt(1) = %v, want %v", got, a)
	}
	if got := d.AncestorAt(3); got != d {
		t.Errorf("AncestorAt(own level) = %v", got)
	}
}

func TestAncestorAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Root.AncestorAt(1)
}

func TestLessPreOrder(t *testing.T) {
	// Ancestor sorts before its descendants; spatially earlier sorts first.
	a := Encode(0, 0, 0, 1)
	if !(a < a.Child(0)) {
		t.Error("ancestor must precede descendant")
	}
	if !(a.Child(0) < a.Child(7)) {
		t.Error("child 0 must precede child 7")
	}
	b := Encode(1, 0, 0, 1)
	if !(a.Child(7).Child(7) < b) {
		t.Error("entire subtree of a must precede b")
	}
}

func TestNeighbor(t *testing.T) {
	c := Encode(1, 1, 1, 2)
	n, ok := c.Neighbor(1, 0, 0)
	if !ok {
		t.Fatal("neighbor should exist")
	}
	x, y, z, l := n.Decode()
	if x != 2 || y != 1 || z != 1 || l != 2 {
		t.Errorf("neighbor = (%d,%d,%d)L%d", x, y, z, l)
	}
	if _, ok := Encode(0, 0, 0, 2).Neighbor(-1, 0, 0); ok {
		t.Error("neighbor off the domain edge should not exist")
	}
	if _, ok := Encode(3, 3, 3, 2).Neighbor(0, 0, 1); ok {
		t.Error("neighbor past the far edge should not exist")
	}
}

func TestFaceNeighborsCount(t *testing.T) {
	// Interior octant: 6 face neighbors.
	if n := Encode(1, 1, 1, 2).FaceNeighbors(nil); len(n) != 6 {
		t.Errorf("interior face neighbors = %d", len(n))
	}
	// Corner octant: 3.
	if n := Encode(0, 0, 0, 2).FaceNeighbors(nil); len(n) != 3 {
		t.Errorf("corner face neighbors = %d", len(n))
	}
	// Root has none.
	if n := Root.FaceNeighbors(nil); len(n) != 0 {
		t.Errorf("root face neighbors = %d", len(n))
	}
}

func TestAllNeighborsCount(t *testing.T) {
	// Interior: 26; corner: 7.
	if n := Encode(1, 1, 1, 2).AllNeighbors(nil); len(n) != 26 {
		t.Errorf("interior neighbors = %d", len(n))
	}
	if n := Encode(0, 0, 0, 2).AllNeighbors(nil); len(n) != 7 {
		t.Errorf("corner neighbors = %d", len(n))
	}
}

func TestCenterExtent(t *testing.T) {
	cx, cy, cz := Root.Center()
	if cx != 0.5 || cy != 0.5 || cz != 0.5 {
		t.Errorf("root center = (%v,%v,%v)", cx, cy, cz)
	}
	if Root.Extent() != 1.0 {
		t.Errorf("root extent = %v", Root.Extent())
	}
	c := Encode(1, 0, 0, 1)
	cx, cy, cz = c.Center()
	if cx != 0.75 || cy != 0.25 || cz != 0.25 {
		t.Errorf("center = (%v,%v,%v)", cx, cy, cz)
	}
	if c.Extent() != 0.5 {
		t.Errorf("extent = %v", c.Extent())
	}
}

func TestString(t *testing.T) {
	if s := Encode(5, 3, 7, 3).String(); s != "L3:(5,3,7)" {
		t.Errorf("String = %q", s)
	}
}

func TestSortedTraversalOrder(t *testing.T) {
	// A full level-2 quad of octants plus their parents, sorted as
	// integers, must put each parent immediately before its first child.
	var codes []Code
	var walk func(c Code, depth int)
	walk = func(c Code, depth int) {
		codes = append(codes, c)
		if depth == 0 {
			return
		}
		for i := 0; i < 8; i++ {
			walk(c.Child(i), depth-1)
		}
	}
	walk(Root, 2)
	pre := append([]Code(nil), codes...) // pre-order by construction
	shuffled := append([]Code(nil), codes...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	slices.Sort(shuffled)
	for i := range pre {
		if shuffled[i] != pre[i] {
			t.Fatalf("position %d: sorted %v != pre-order %v", i, shuffled[i], pre[i])
		}
	}
}

func randCode(r *rand.Rand) Code {
	l := uint8(r.Intn(MaxLevel + 1))
	lim := uint32(1) << l
	return Encode(r.Uint32()%lim, r.Uint32()%lim, r.Uint32()%lim, l)
}

// Property: encode/decode is the identity for random codes.
func TestQuickEncodeDecode(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		c := randCode(r)
		x, y, z, l := c.Decode()
		return Encode(x, y, z, l) == c
	}
	if err := quick.Check(func(struct{}) bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Child/Parent are inverse for random codes below max level.
func TestQuickChildParent(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func(i uint8) bool {
		c := randCode(r)
		if c.Level() >= MaxLevel {
			return true
		}
		ch := c.Child(int(i % 8))
		return ch.Parent() == c && ch.ChildIndex() == int(i%8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the decode-based oracle order is a strict weak ordering
// (irreflexive, asymmetric, transitive on a sample), so integer order,
// which equals it, is the curve order.
func TestQuickLessOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 500; i++ {
		a, b, c := legacyOf(randCode(r)), legacyOf(randCode(r)), legacyOf(randCode(r))
		if a.less(a) {
			t.Fatal("less is reflexive")
		}
		if a.less(b) && b.less(a) {
			t.Fatal("less is symmetric")
		}
		if a.less(b) && b.less(c) && !a.less(c) {
			t.Fatalf("less not transitive: %v %v %v", a.key(), b.key(), c.key())
		}
	}
}

// Property: neighbors are involutive — displacing back returns the original.
func TestQuickNeighborInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for i := 0; i < 500; i++ {
		c := randCode(r)
		dx, dy, dz := r.Intn(3)-1, r.Intn(3)-1, r.Intn(3)-1
		if n, ok := c.Neighbor(dx, dy, dz); ok {
			back, ok2 := n.Neighbor(-dx, -dy, -dz)
			if !ok2 || back != c {
				t.Fatalf("neighbor involution failed for %v", c)
			}
		}
	}
}

// Property: ancestor codes always sort before descendants.
func TestQuickAncestorOrder(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for i := 0; i < 500; i++ {
		c := randCode(r)
		if c.Level() == 0 {
			continue
		}
		anc := c.AncestorAt(uint8(r.Intn(int(c.Level()))))
		if anc >= c {
			t.Fatalf("ancestor %v does not precede %v", anc, c)
		}
		if !anc.IsAncestorOf(c) {
			t.Fatalf("AncestorAt result not ancestor: %v of %v", anc, c)
		}
	}
}

// Property: integer order equals the decode-based oracle order, and the
// oracle form converts back to the same code.
func TestQuickKeyOrderEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for i := 0; i < 1000; i++ {
		a, b := randCode(r), randCode(r)
		if legacyOf(a).key() != a {
			t.Fatalf("legacy round trip of %v failed", a)
		}
		if (a < b) != legacyOf(a).less(legacyOf(b)) {
			t.Fatalf("integer order diverges from the oracle for %v, %v", a, b)
		}
	}
}

// Property: ParseCode inverts String for random codes, and rejects
// malformed or out-of-grid inputs.
func TestParseCodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 1000; i++ {
		c := randCode(r)
		got, err := ParseCode(c.String())
		if err != nil {
			t.Fatalf("ParseCode(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("ParseCode(String(%v)) = %v", c, got)
		}
	}
	for _, bad := range []string{"", "L4", "4:(1,2,3)", "L99:(0,0,0)", "L2:(4,0,0)", "L2:(0,0",
		"L2:(01,0,0)", "L2:(+1,0,0)", "L2:(1,0,0) ", "L2:(1,0,0)x", "L-1:(0,0,0)", "L2:(1,,0)"} {
		if _, err := ParseCode(bad); err == nil {
			t.Fatalf("ParseCode(%q) succeeded, want error", bad)
		}
	}
}

// Cover is the common ancestor the parent walk of both corner cells finds.
func TestCoverMatchesParentWalk(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	const n = 1 << MaxLevel
	for i := 0; i < 2000; i++ {
		var lo, hi [3]uint32
		for d := 0; d < 3; d++ {
			a, b := uint32(r.Intn(n)), uint32(r.Intn(n))
			if i%3 == 0 { // small boxes, often inside one deep octant
				b = a + uint32(r.Intn(4))
				if b >= n {
					b = n - 1
				}
			}
			lo[d], hi[d] = min(a, b), max(a, b)
		}
		a, c := Encode(lo[0], lo[1], lo[2], MaxLevel), Encode(hi[0], hi[1], hi[2], MaxLevel)
		for a != c {
			a, c = a.Parent(), c.Parent()
		}
		if got := Cover(lo, hi); got != a {
			t.Fatalf("Cover(%v, %v) = %v, parent walk %v", lo, hi, got, a)
		}
	}
}

// CommonLevel is the level at which the parent walks of both codes meet,
// for any pair: nesting, equal, or disjoint.
func TestCommonLevelMatchesParentWalk(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	code := func() Code {
		l := uint8(r.Intn(MaxLevel + 1))
		n := 1 << l
		return Encode(uint32(r.Intn(n)), uint32(r.Intn(n)), uint32(r.Intn(n)), l)
	}
	for i := 0; i < 5000; i++ {
		a, b := code(), code()
		switch i % 4 {
		case 1: // b nests under a
			for b.Level() > 0 && !a.Contains(b) && a.Level() < MaxLevel {
				b = a.Child(r.Intn(8))
			}
		case 2:
			b = a
		}
		x, y := a, b
		for x.Level() > y.Level() {
			x = x.Parent()
		}
		for y.Level() > x.Level() {
			y = y.Parent()
		}
		for x != y {
			x, y = x.Parent(), y.Parent()
		}
		if got := CommonLevel(a, b); got != x.Level() {
			t.Fatalf("CommonLevel(%v, %v) = %d, parent walk meets at %v", a, b, got, x)
		}
	}
}

// BenchmarkParseCode parses the wire form of a deep code, as a region
// client does once per hit leaf.
func BenchmarkParseCode(b *testing.B) {
	s := Encode(123456, 7890, 345678, MaxLevel).String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCode(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodeString(b *testing.B) {
	c := Encode(123456, 7890, 345678, MaxLevel)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.String()
	}
}
