package morton

import "testing"

// Boundary behavior at the extremes of the code space: the root (level
// 0), the deepest level, and the maximum-coordinate corner cell. Bulk
// construction leans on these edges — complement covers end at the last
// cell, shard spans clamp at the domain boundary — so they get explicit
// coverage beyond the fuzz mask.

func TestBoundaryRoot(t *testing.T) {
	if Root.Level() != 0 {
		t.Fatalf("root level = %d", Root.Level())
	}
	if x, y, z, l := Root.Decode(); x != 0 || y != 0 || z != 0 || l != 0 {
		t.Fatalf("root decodes to (%d,%d,%d,%d)", x, y, z, l)
	}
	if Root.AncestorAt(0) != Root {
		t.Fatal("root is not its own level-0 ancestor")
	}
	// The root's span covers every code: both corner cells and itself.
	lo, hi := Root.KeySpan()
	last := uint32(1)<<MaxLevel - 1
	corner := Encode(last, last, last, MaxLevel)
	if uint64(Root) != lo {
		t.Fatal("root key is not its own span minimum")
	}
	if k := uint64(corner); k != hi {
		t.Fatalf("max corner key %#x != root span hi %#x", k, hi)
	}
	if k := uint64(Encode(0, 0, 0, MaxLevel)); k < lo || k > hi {
		t.Fatal("origin cell outside root span")
	}
	// No neighbors in any direction at level 0.
	if n := Root.AllNeighbors(nil); len(n) != 0 {
		t.Fatalf("root has %d neighbors", len(n))
	}
	if !Root.IsAncestorOf(corner) || Root.IsAncestorOf(Root) {
		t.Fatal("root ancestry misclassified")
	}
}

func TestBoundaryMaxCorner(t *testing.T) {
	last := uint32(1)<<MaxLevel - 1
	c := Encode(last, last, last, MaxLevel)
	if x, y, z, l := c.Decode(); x != last || y != last || z != last || l != MaxLevel {
		t.Fatalf("corner decodes to (%d,%d,%d,%d)", x, y, z, l)
	}
	if !c.Valid() || c|0x3f != 1<<63-1 {
		t.Fatalf("corner %#x is not the last valid Morton position", uint64(c))
	}
	// A MaxLevel cell's span is exactly itself.
	if lo, hi := c.KeySpan(); lo != uint64(c) || hi != uint64(c) {
		t.Fatalf("corner span [%#x, %#x] is not the single cell %#x", lo, hi, uint64(c))
	}
	// Every ancestor up the chain is the all-ones cell of its level and
	// contains the corner.
	for l := uint8(0); l <= MaxLevel; l++ {
		a := c.AncestorAt(l)
		liml := uint32(1)<<l - 1
		if x, y, z, al := a.Decode(); x != liml || y != liml || z != liml || al != l {
			t.Fatalf("level-%d ancestor decodes to (%d,%d,%d,%d)", l, x, y, z, al)
		}
		if !a.Contains(c) {
			t.Fatalf("level-%d ancestor does not contain the corner", l)
		}
	}
	// Outward steps leave the domain; inward steps stay and decode right.
	if _, ok := c.Neighbor(1, 0, 0); ok {
		t.Fatal("corner has a +x neighbor")
	}
	if _, ok := c.Neighbor(0, 1, 1); ok {
		t.Fatal("corner has a +y+z neighbor")
	}
	n, ok := c.Neighbor(-1, 0, 0)
	if !ok {
		t.Fatal("corner lost its -x neighbor")
	}
	if x, y, z, _ := n.Decode(); x != last-1 || y != last || z != last {
		t.Fatalf("-x neighbor decodes to (%d,%d,%d)", x, y, z)
	}
	// Only the 7 inward neighbors exist at the corner.
	if ns := c.AllNeighbors(nil); len(ns) != 7 {
		t.Fatalf("corner has %d neighbors, want 7", len(ns))
	}
	if fs := c.FaceNeighbors(nil); len(fs) != 3 {
		t.Fatalf("corner has %d face neighbors, want 3", len(fs))
	}
}

func TestBoundaryOriginDeepCell(t *testing.T) {
	c := Encode(0, 0, 0, MaxLevel)
	if _, ok := c.Neighbor(-1, 0, 0); ok {
		t.Fatal("origin cell has a -x neighbor")
	}
	if ns := c.AllNeighbors(nil); len(ns) != 7 {
		t.Fatalf("origin cell has %d neighbors, want 7", len(ns))
	}
	// Its ancestors are the all-zeros path down from the root; its key is
	// the minimum among MaxLevel cells.
	if c.AncestorAt(0) != Root {
		t.Fatal("origin cell's level-0 ancestor is not the root")
	}
	if p := c.Parent(); p != Encode(0, 0, 0, MaxLevel-1) || p.Child(0) != c {
		t.Fatal("origin cell parent/child inconsistent")
	}
	if lo, _ := Root.KeySpan(); uint64(c) <= lo {
		t.Fatal("origin cell key does not sort after the root")
	}
}

// TestBoundaryChildSpansPartition: at every level boundary the eight
// child spans tile the parent's descendant range contiguously in Z-order
// — the invariant span-sharded routing and complement covers rest on.
func TestBoundaryChildSpansPartition(t *testing.T) {
	last := uint32(1)<<(MaxLevel-1) - 1
	for _, p := range []Code{Root, Encode(last, last, last, MaxLevel-1)} {
		_, phi := p.KeySpan()
		prev := uint64(p)
		for i := 0; i < 8; i++ {
			lo, hi := p.Child(i).KeySpan()
			if lo <= prev {
				t.Fatalf("%v child %d span not after predecessor", p, i)
			}
			prev = hi
		}
		if prev != phi {
			t.Fatalf("%v children end at %#x, parent span ends at %#x", p, prev, phi)
		}
	}
}
