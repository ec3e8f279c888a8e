package router

import (
	"math"
	"math/rand"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/serve"
)

func TestUniformSpansPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16, 31} {
		spans := UniformSpans(n)
		if len(spans) != n {
			t.Fatalf("UniformSpans(%d) returned %d spans", n, len(spans))
		}
		// NewShardMap validates ascending, disjoint, complete coverage.
		if _, err := NewShardMap(spans); err != nil {
			t.Fatalf("UniformSpans(%d): %v", n, err)
		}
	}
}

func TestParseShardSpec(t *testing.T) {
	kr, err := ParseShardSpec("1/4")
	if err != nil {
		t.Fatal(err)
	}
	if want := UniformSpans(4)[1]; kr != want {
		t.Fatalf("ParseShardSpec(1/4) = %+v, want %+v", kr, want)
	}
	if kr, err = ParseShardSpec("0/1"); err != nil || !kr.IsFull() {
		t.Fatalf("ParseShardSpec(0/1) = %+v, %v; want full span", kr, err)
	}
	for _, bad := range []string{"", "3", "a/b", "4/4", "-1/4", "1/0", "1/2/3"} {
		if _, err := ParseShardSpec(bad); err == nil {
			t.Fatalf("ParseShardSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestOwnerOfMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 7, 16} {
		m, err := NewShardMap(UniformSpans(n))
		if err != nil {
			t.Fatal(err)
		}
		keys := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
		for i := 0; i < 200; i++ {
			keys = append(keys, rng.Uint64())
		}
		for _, k := range keys {
			got := m.OwnerOf(k)
			want := -1
			for i := 0; i < m.Len(); i++ {
				kr := m.Span(i)
				if k >= kr.Lo && k <= kr.Hi {
					want = i
					break
				}
			}
			if got != want {
				t.Fatalf("n=%d OwnerOf(%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

// TestCandidatesForBoxComplete: every octant code (up to a modest level)
// that spatially overlaps the box must be owned by a candidate shard —
// including coarse leaves whose keys precede the box's Morton window.
func TestCandidatesForBoxComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const maxTestLevel = 4
	for _, n := range []int{1, 2, 3, 4, 9} {
		m, err := NewShardMap(UniformSpans(n))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			var box serve.Box
			for d := 0; d < 3; d++ {
				a, b := rng.Float64(), rng.Float64()
				if a > b {
					a, b = b, a
				}
				if a == b {
					b = a + 1e-6
				}
				box.Min[d], box.Max[d] = a, math.Min(b+1e-9, 1)
			}
			ids, err := m.CandidatesForBox(box)
			if err != nil {
				t.Fatalf("CandidatesForBox(%+v): %v", box, err)
			}
			cand := map[int]bool{}
			for i, id := range ids {
				cand[id] = true
				if i > 0 && ids[i] <= ids[i-1] {
					t.Fatalf("candidates not ascending: %v", ids)
				}
			}
			// Brute force: every octant overlapping the box, any level.
			for level := uint8(0); level <= maxTestLevel; level++ {
				grid := uint32(1) << level
				for x := uint32(0); x < grid; x++ {
					for y := uint32(0); y < grid; y++ {
						for z := uint32(0); z < grid; z++ {
							code := morton.Encode(x, y, z, level)
							if !overlapsBox(code, box) {
								continue
							}
							owner := m.OwnerOf(uint64(code))
							if !cand[owner] {
								t.Fatalf("n=%d box %+v: octant %v owned by shard %d missing from candidates %v",
									n, box, code, owner, ids)
							}
						}
					}
				}
			}
		}
	}
}

// overlapsBox mirrors serve's leaf-vs-box overlap test.
func overlapsBox(code morton.Code, box serve.Box) bool {
	cx, cy, cz := code.Center()
	ext := code.Extent()
	min := [3]float64{cx - ext/2, cy - ext/2, cz - ext/2}
	for d := 0; d < 3; d++ {
		if min[d] >= box.Max[d] || box.Min[d] >= min[d]+ext {
			return false
		}
	}
	return true
}

func TestNewShardMapRejectsBadSpans(t *testing.T) {
	bad := [][]serve.KeyRange{
		{},
		{{Lo: 1, Hi: math.MaxUint64}}, // gap at 0
		{{Lo: 0, Hi: 10}, {Lo: 12, Hi: math.MaxUint64}},     // gap
		{{Lo: 0, Hi: 10}, {Lo: 10, Hi: math.MaxUint64}},     // overlap
		{{Lo: 0, Hi: 10}, {Lo: 11, Hi: math.MaxUint64 - 1}}, // incomplete
	}
	for i, spans := range bad {
		if _, err := NewShardMap(spans); err == nil {
			t.Fatalf("case %d: NewShardMap accepted invalid spans %v", i, spans)
		}
	}
}
