package morton

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// shellLeaves is an adaptive leaf set refined to level maxLevel around the
// sphere of radius 0.3 centred in the unit cube, as the droplet workloads
// refine around their interface; it comes out in curve order.
func shellLeaves(maxLevel uint8) []Code {
	var leaves []Code
	var visit func(c Code)
	visit = func(c Code) {
		cx, cy, cz := c.Center()
		d := math.Sqrt((cx-0.5)*(cx-0.5) + (cy-0.5)*(cy-0.5) + (cz-0.5)*(cz-0.5))
		if c.Level() == maxLevel || math.Abs(d-0.3) > c.Extent() {
			leaves = append(leaves, c)
			return
		}
		for k := 0; k < 8; k++ {
			visit(c.Child(k))
		}
	}
	visit(Root)
	return leaves
}

// The code arithmetic on its own: one op is one Neighbor, Parent or Child
// of a leaf of the level-7 shell, or one sort of the whole shuffled shell.

func BenchmarkCodeNeighbor(b *testing.B) {
	leaves := shellLeaves(7)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		d := faceDirs[i%6]
		if _, ok := leaves[i%len(leaves)].Neighbor(d[0], d[1], d[2]); ok {
			n++
		}
	}
	sinkInt = n
}

func BenchmarkCodeParent(b *testing.B) {
	leaves := shellLeaves(7)
	b.ResetTimer()
	var acc Code
	for i := 0; i < b.N; i++ {
		acc ^= leaves[i%len(leaves)].Parent()
	}
	sinkCode = acc
}

func BenchmarkCodeChild(b *testing.B) {
	leaves := shellLeaves(7)
	b.ResetTimer()
	var acc Code
	for i := 0; i < b.N; i++ {
		acc ^= leaves[i%len(leaves)].Child(i & 7)
	}
	sinkCode = acc
}

func BenchmarkSortLeaves(b *testing.B) {
	leaves := shellLeaves(7)
	rand.New(rand.NewSource(1)).Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	buf := make([]Code, len(leaves))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, leaves)
		slices.Sort(buf)
	}
	b.ReportMetric(float64(len(leaves)), "leaves")
}

var faceDirs = [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

var (
	sinkInt  int
	sinkCode Code
)
