package morton

import (
	"math"
	"testing"
)

// partition refines the root depth first, one shape byte per octant
// visited: an odd byte splits it. Children are visited in order, so leaves
// come out ascending and nodes holds every octant visited in
// pre-order (the bulk node array). Splitting stops at MaxLevel and once
// the leaf count reaches maxLeaves; a short shape leaves the rest whole.
func partition(shape []byte, maxLeaves int) (leaves, nodes []Code) {
	n := 1
	var visit func(c Code)
	visit = func(c Code) {
		nodes = append(nodes, c)
		split := len(shape) > 0 && shape[0]&1 == 1 && c.Level() < MaxLevel && n+7 <= maxLeaves
		if len(shape) > 0 {
			shape = shape[1:]
		}
		if !split {
			leaves = append(leaves, c)
			return
		}
		n += 7
		for k := 0; k < 8; k++ {
			visit(c.Child(k))
		}
	}
	visit(Root)
	return leaves, nodes
}

// cornerChain is a shape that splits child k of every octant down to
// MaxLevel and nothing else: its leaves include the MaxLevel cell at the
// origin (k = 0) or at the far corner (k = 7).
func cornerChain(k int) []byte {
	var shape []byte
	for l := 0; l < MaxLevel; l++ {
		shape = append(shape, 1) // split this octant
		for j := 0; j < k; j++ {
			shape = append(shape, 0) // children before k stay whole
		}
	}
	return shape
}

// firstCell is c's first MaxLevel cell.
func firstCell(c Code) Code { return c&^0x3f | MaxLevel }

// containerOracle is Container by linear scan: the code holding c's first
// cell, else the last code whose cell-aligned position precedes c's.
func containerOracle(codes []Code, c Code) (int, bool) {
	i := -1
	for j, d := range codes {
		if d.Contains(firstCell(c)) {
			return j, d.Contains(c)
		}
		if d>>6 <= c>>6 {
			i = j
		}
	}
	return i, false
}

// lookupOracle is Lookup by linear scan.
func lookupOracle(codes []Code, c Code) (int, bool) {
	i := -1
	for j, d := range codes {
		if d == c {
			return j, true
		}
		if d < c {
			i = j
		}
	}
	return i, false
}

// windowOracle is Window by linear scan over ascending codes.
func windowOracle(codes []Code, lo, hi uint64) (first, last int) {
	last = -1
	for j, d := range codes {
		if uint64(d) < lo {
			first = j + 1
		}
		if uint64(d) <= hi {
			last = j
		}
	}
	return first, last
}

// FuzzKeySpace holds the sorted-key primitives to linear-scan oracles on
// random leaf partitions, on gapped subsets of them (a shard's leaves) and
// on their pre-order node arrays (ancestors before descendants). Every
// leaf probes with itself, its parent, its first child and its first and
// last MaxLevel cells, so anchors shared by a coarse and a fine code are
// always probed; raw supplies one arbitrary code and key window, and the
// point one arbitrary CellOf input.
func FuzzKeySpace(f *testing.F) {
	far := math.Nextafter(1, 0)
	f.Add([]byte{1}, uint64(0), uint64(0), 0.5, 0.5, 0.5)
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 1}, uint64(0xdeadbeef), uint64(1<<40), 0.25, 0.75, 0.125)
	f.Add(cornerChain(0), uint64(MaxLevel), uint64(1<<63-1), 0.0, 0.0, 0.0)
	f.Add(cornerChain(7), ^uint64(0), ^uint64(0), far, far, far)
	f.Add(cornerChain(7), uint64(legacyOf(Encode(1, 1, 1, 1))), uint64(Encode(1, 1, 1, 1)), far, 0.5, 0.5)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint64(7), uint64(3), 1.0, 0.5, -0.0)
	f.Add([]byte{3, 5, 7}, uint64(12345), uint64(999), math.NaN(), 0.5, 0.5)
	f.Add([]byte{}, uint64(1), uint64(2), math.Inf(1), -1e-300, 0.5)
	f.Fuzz(func(t *testing.T, shape []byte, raw, raw2 uint64, x, y, z float64) {
		leaves, nodes := partition(shape, 160)
		var gapped []Code
		for i, c := range leaves {
			if i >= len(shape) || shape[i]&2 == 0 {
				gapped = append(gapped, c)
			}
		}
		level := uint8(raw % (MaxLevel + 1))
		lim := uint32(1) << level
		rc := Encode(uint32(raw>>6)%lim, uint32(raw>>27)%lim, uint32(raw>>45)%lim, level)
		probes := []Code{Root, rc}
		for _, c := range leaves {
			_, hi := c.KeySpan()
			probes = append(probes, c, c.Parent(), firstCell(c), Code(hi))
			if c.Level() < MaxLevel {
				probes = append(probes, c.Child(0))
			}
		}

		// Adjacent pre-order nodes are ascending integers, and every node's
		// mask arithmetic matches the oracle against its predecessor and a
		// long offset from raw.
		d := [3]int{int(int8(raw)), int(int8(raw >> 8)), int(int8(raw2))}
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1] >= nodes[i] {
				t.Fatalf("pre-order nodes %v, %v are not ascending", nodes[i-1], nodes[i])
			}
			checkOracle(t, nodes[i], nodes[i-1], d)
		}
		checkOracle(t, rc, nodes[len(nodes)-1], d)

		for _, set := range []struct {
			name      string
			codes     []Code
			container bool // disjoint codes: Container is defined
		}{{"partition", leaves, true}, {"gapped", gapped, true}, {"nodes", nodes, false}} {
			for _, p := range probes {
				if set.container {
					i, ok := Container(set.codes, p)
					wi, wok := containerOracle(set.codes, p)
					if i != wi || ok != wok {
						t.Fatalf("%s: Container(%v) = %d, %v; oracle %d, %v", set.name, p, i, ok, wi, wok)
					}
					for _, at := range []int{wi, wi + near + 1, int(raw2 % uint64(len(set.codes)+1))} {
						if j, jok := ContainerNear(set.codes, p, at); j != wi || jok != wok {
							t.Fatalf("%s: ContainerNear(%v, %d) = %d, %v; oracle %d, %v", set.name, p, at, j, jok, wi, wok)
						}
					}
				}
				i, ok := Lookup(set.codes, p)
				if wi, wok := lookupOracle(set.codes, p); i != wi || ok != wok {
					t.Fatalf("%s: Lookup(%v) = %d, %v; oracle %d, %v", set.name, p, i, ok, wi, wok)
				}
				lo, hi := p.KeySpan()
				for _, w := range [][2]uint64{{lo, hi}, {raw, raw2}, {uint64(p), uint64(p)}, {0, math.MaxUint64}} {
					first, last := Window(set.codes, w[0], w[1])
					if wf, wl := windowOracle(set.codes, w[0], w[1]); first != wf || last != wl {
						t.Fatalf("%s: Window(%d, %d) = [%d, %d]; oracle [%d, %d]", set.name, w[0], w[1], first, last, wf, wl)
					}
				}
			}
		}
		// A partition holds every cell.
		for _, p := range probes {
			if i, _ := Container(leaves, p); i < 0 || !leaves[i].Contains(firstCell(p)) {
				t.Fatalf("partition: no leaf holds the first cell of %v", p)
			}
		}

		cell, ok := CellOf(x, y, z)
		inside := x >= 0 && x < 1 && y >= 0 && y < 1 && z >= 0 && z < 1
		if ok != inside {
			t.Fatalf("CellOf(%v, %v, %v) ok = %v, want %v", x, y, z, ok, inside)
		}
		if !ok {
			return
		}
		if cell.Level() != MaxLevel {
			t.Fatalf("CellOf(%v, %v, %v) = %v, not a MaxLevel cell", x, y, z, cell)
		}
		// The cell and the leaf holding it both contain the point by float
		// extents; leaf faces are dyadic, so the test is exact.
		in := func(c Code) bool {
			a, b, d, _ := c.Decode()
			e := c.Extent()
			for k, v := range [3]float64{x, y, z} {
				if lo := float64([3]uint32{a, b, d}[k]) * e; v < lo || v >= lo+e {
					return false
				}
			}
			return true
		}
		if !in(cell) {
			t.Fatalf("CellOf(%v, %v, %v) = %v, which does not hold the point", x, y, z, cell)
		}
		i, ok := Container(leaves, cell)
		if !ok || !in(leaves[i]) {
			t.Fatalf("Container(CellOf(%v, %v, %v)) = %d, %v: not the leaf holding the point", x, y, z, i, ok)
		}
	})
}
