package morton

import "testing"

// legacy is the decode-based code form the mask arithmetic replaced: the
// right-aligned interleave shifted left by 6, with the level in the low 6
// bits. Its integer order is not Z-order, so it orders through key, and
// its neighbours decode and re-encode. It is the oracle the Code
// operations are checked against.
type legacy uint64

func legacyEncode(x, y, z uint32, l uint8) legacy {
	return legacy(interleave(x, y, z)<<6 | uint64(l))
}

// legacyOf converts a Code to the legacy form: the right-aligned Morton
// bits under the level.
func legacyOf(c Code) legacy {
	l := uint64(c) & 0x3f
	return legacy(uint64(c)>>6>>(3*(MaxLevel-l))<<6 | l)
}

func (o legacy) level() uint8   { return uint8(o & 0x3f) }
func (o legacy) morton() uint64 { return uint64(o >> 6) }
func (o legacy) decode() (x, y, z uint32, l uint8) {
	x, y, z = deinterleave(o.morton())
	return x, y, z, o.level()
}

// key left-aligns the Morton bits to MaxLevel: the Code of the same octant.
func (o legacy) key() Code {
	return Code(o.morton()<<(3*(MaxLevel-o.level()))<<6 | uint64(o.level()))
}

func (o legacy) less(p legacy) bool {
	ok, pk := o.morton()<<(3*(MaxLevel-o.level())), p.morton()<<(3*(MaxLevel-p.level()))
	if ok != pk {
		return ok < pk
	}
	return o.level() < p.level()
}

func (o legacy) parent() legacy {
	if o.level() == 0 {
		return o
	}
	return legacy(o.morton()>>3<<6 | uint64(o.level()-1))
}

func (o legacy) child(i int) legacy {
	return legacy((o.morton()<<3|uint64(i))<<6 | uint64(o.level()+1))
}

func (o legacy) childIndex() int {
	if o.level() == 0 {
		return 0
	}
	return int(o.morton() & 7)
}

func (o legacy) ancestorAt(l uint8) legacy {
	return legacy(o.morton()>>(3*(o.level()-l))<<6 | uint64(l))
}

func (o legacy) isAncestorOf(p legacy) bool {
	return p.level() > o.level() && p.ancestorAt(o.level()) == o
}

func (o legacy) keySpan() (lo, hi uint64) {
	shift := 3 * (MaxLevel - o.level())
	return uint64(o.key()), (o.morton()<<shift|(uint64(1)<<shift-1))<<6 | MaxLevel
}

func (o legacy) neighbor(dx, dy, dz int) (legacy, bool) {
	x, y, z, l := o.decode()
	limit := int64(1) << l
	nx, ny, nz := int64(x)+int64(dx), int64(y)+int64(dy), int64(z)+int64(dz)
	if nx < 0 || ny < 0 || nz < 0 || nx >= limit || ny >= limit || nz >= limit {
		return 0, false
	}
	return legacyEncode(uint32(nx), uint32(ny), uint32(nz), l), true
}

// commonLevel walks both parent chains until they meet.
func commonLevel(a, b legacy) uint8 {
	for a.level() > b.level() {
		a = a.parent()
	}
	for b.level() > a.level() {
		b = b.parent()
	}
	for a != b {
		a, b = a.parent(), b.parent()
	}
	return a.level()
}

// checkOracle holds every mask operation on the valid codes a and b to the
// decode-based oracle: integer order, KeySpan, Parent, Child, ChildIndex,
// AncestorAt, ancestry, CommonLevel and all 26 unit Neighbor offsets plus
// the long offset d.
func checkOracle(t *testing.T, a, b Code, d [3]int) {
	t.Helper()
	oa, ob := legacyOf(a), legacyOf(b)
	if oa.key() != a || ob.key() != b {
		t.Fatalf("legacy round trip: %v -> %#x -> %#x", a, uint64(oa), uint64(oa.key()))
	}
	if (a < b) != oa.less(ob) {
		t.Fatalf("integer order of %v, %v disagrees with the oracle", a, b)
	}
	lo, hi := a.KeySpan()
	if olo, ohi := oa.keySpan(); lo != olo || hi != ohi {
		t.Fatalf("KeySpan(%v) = [%#x, %#x]; oracle [%#x, %#x]", a, lo, hi, olo, ohi)
	}
	if a.Parent() != oa.parent().key() || a.ChildIndex() != oa.childIndex() {
		t.Fatalf("Parent/ChildIndex(%v) = %v, %d; oracle %v, %d", a, a.Parent(), a.ChildIndex(), oa.parent().key(), oa.childIndex())
	}
	if a.Level() < MaxLevel {
		for i := 0; i < 8; i++ {
			if a.Child(i) != oa.child(i).key() {
				t.Fatalf("Child(%v, %d) = %v; oracle %v", a, i, a.Child(i), oa.child(i).key())
			}
		}
	}
	for l := uint8(0); l <= a.Level(); l++ {
		if a.AncestorAt(l) != oa.ancestorAt(l).key() {
			t.Fatalf("AncestorAt(%v, %d) = %v", a, l, a.AncestorAt(l))
		}
	}
	if a.IsAncestorOf(b) != oa.isAncestorOf(ob) || b.IsAncestorOf(a) != ob.isAncestorOf(oa) {
		t.Fatalf("ancestry of %v, %v disagrees with the oracle", a, b)
	}
	if got, want := CommonLevel(a, b), commonLevel(oa, ob); got != want {
		t.Fatalf("CommonLevel(%v, %v) = %d; oracle %d", a, b, got, want)
	}
	for k := 0; k < 28; k++ {
		dx, dy, dz := k%3-1, k/3%3-1, k/9-1
		if k == 27 {
			dx, dy, dz = d[0], d[1], d[2]
		}
		n, ok := a.Neighbor(dx, dy, dz)
		on, ook := oa.neighbor(dx, dy, dz)
		if ok != ook || ok && n != on.key() {
			t.Fatalf("Neighbor(%v, %d, %d, %d) = %v, %v; oracle %v, %v", a, dx, dy, dz, n, ok, on.key(), ook)
		}
	}
}
