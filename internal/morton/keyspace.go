package morton

// Sorted-code primitives. Every leaf array in the system is a slice of
// codes ascending as integers (the leaf index, a tree's LeafCodes, bulk's
// pre-order node array), and every search over one goes through these
// functions.
// Containment has one rule, Code.Contains; no caller compares a key against
// a KeySpan bound by hand.

// after returns the number of codes at most k: the position of the first
// code after k.
func after(codes []Code, k uint64) int {
	lo, hi := 0, len(codes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if uint64(codes[m]) <= k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Container returns the position of the code that holds c's first MaxLevel
// cell: the last code whose left-aligned position is at or before c's. ok
// reports whether that code contains c itself; in a leaf partition it is
// false exactly when c is split among finer leaves. Container returns
// -1, false when c precedes every code.
func Container(codes []Code, c Code) (i int, ok bool) {
	i = after(codes, uint64(c)|0x3f) - 1
	return i, i >= 0 && codes[i].Contains(c)
}

// near is how many positions on each side of a hint ContainerNear
// searches first. On the flow_projection benchmark mesh (51.8 k cells),
// 81 % of solver.Build's face neighbours and 76 % of advection's stencil
// lookups lie that close to their cell in Z-order; searching the whole
// slice for each instead makes Build a third slower and advection half.
const near = 64

// ContainerNear is Container for a code expected near position i: it
// searches the near codes on each side of i first, and the whole slice
// only when none of them holds c. Among disjoint codes the holder of c is
// unique, so a hit in the window is Container's answer.
func ContainerNear(codes []Code, c Code, i int) (int, bool) {
	lo, hi := max(0, i-near), min(len(codes), i+near+1)
	if lo < hi {
		if j, ok := Container(codes[lo:hi], c); ok {
			return lo + j, true
		}
	}
	return Container(codes, c)
}

// Lookup returns the position of c in codes and whether it is there. When
// it is not, the position is that of the last code before c, or -1.
func Lookup(codes []Code, c Code) (int, bool) {
	i := after(codes, uint64(c)) - 1
	return i, i >= 0 && codes[i] == c
}

// Window returns the positions [first, last] of the codes that lie in
// [lo, hi]; last < first when there are none.
func Window(codes []Code, lo, hi uint64) (first, last int) {
	if lo > 0 {
		first = after(codes, lo-1)
	}
	return first, after(codes, hi) - 1
}

// CellOf returns the MaxLevel cell that holds the point (x, y, z), and false
// when the point lies outside the unit cube [0,1)³.
func CellOf(x, y, z float64) (Code, bool) {
	if !(x >= 0 && x < 1 && y >= 0 && y < 1 && z >= 0 && z < 1) {
		return 0, false
	}
	const n = 1 << MaxLevel
	return Encode(uint32(x*n), uint32(y*n), uint32(z*n), MaxLevel), true
}
