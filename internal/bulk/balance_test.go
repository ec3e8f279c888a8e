package bulk

import (
	"slices"
	"testing"

	"pmoctree/internal/morton"
)

// mix is a seeded hash of a code, the source of the random predicates.
func mix(c morton.Code, salt byte) uint64 {
	x := uint64(c) ^ uint64(salt)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// splitWhere refines a sorted leaf partition: every leaf below maxLevel
// that pred holds for splits, and so do its children, recursively. It
// returns the new partition and appends each split cell to changed.
func splitWhere(leaves []morton.Code, pred func(morton.Code) bool, maxLevel uint8, changed []morton.Code) ([]morton.Code, []morton.Code) {
	var out []morton.Code
	var walk func(c morton.Code)
	walk = func(c morton.Code) {
		if c.Level() >= maxLevel || !pred(c) {
			out = append(out, c)
			return
		}
		changed = append(changed, c)
		for k := 0; k < 8; k++ {
			walk(c.Child(k))
		}
	}
	for _, c := range leaves {
		walk(c)
	}
	return out, changed
}

// mergeWhere coarsens a sorted leaf partition: eight sibling leaves whose
// parent pred holds for merge into it, cascading until no group merges.
// It returns the new partition and appends each merged parent to changed.
func mergeWhere(leaves []morton.Code, pred func(morton.Code) bool, changed []morton.Code) ([]morton.Code, []morton.Code) {
	for {
		var out []morton.Code
		merged := false
		for i := 0; i < len(leaves); {
			c := leaves[i]
			if c.Level() > 0 && c.ChildIndex() == 0 && i+8 <= len(leaves) {
				p := c.Parent()
				group := true
				for k := 1; k < 8 && group; k++ {
					group = leaves[i+k] == p.Child(k)
				}
				if group && pred(p) {
					out = append(out, p)
					changed = append(changed, p)
					merged = true
					i += 8
					continue
				}
			}
			out = append(out, c)
			i++
		}
		leaves = out
		if !merged {
			return leaves, changed
		}
	}
}

// point is the cell of the level-8 grid at byte coordinates (a, b, c).
func point(a, b, c byte) morton.Code {
	return morton.Encode(uint32(a), uint32(b), uint32(c), 8)
}

// FuzzClosureSeeded holds the seeded closure (RunFrom) to the full one
// (Run). The script's 4-byte ops build a partition from the root, balance
// it, and edit it with random refines and cascading coarsens that record
// the cells they split or merge; at each balance op after the first, both
// closures run on the edited partition and must return the same leaves
// and splits.
//
// Op kinds (first byte mod 5; the rest select the level):
//   - 0: refine the cells containing point (a, b, c) down to a level;
//   - 1: refine every leaf a hash of salt a picks, 1 in 2+b%5, recursively
//     down to level 2+c%4;
//   - 2: merge every group whose parent the hash picks, cascading;
//   - 3: merge every group whose parent does not contain point (a, b, c)
//     and lies at or below a level, cascading;
//   - 4: balance, comparing the two closures.
func FuzzClosureSeeded(f *testing.F) {
	// A chain down to level 5 beside a cell corner, balanced, then every
	// group off the chain collapsed up to level 2: the level-5 leaves sit
	// beside a level-2 leaf, and its level-3 children are still too
	// coarse for them after the first round's split.
	f.Add([]byte{0 + 5*4, 63, 63, 63, 4, 0, 0, 0, 3 + 5*2, 63, 63, 63, 4, 0, 0, 0})
	f.Add([]byte{1, 7, 1, 2, 4, 0, 0, 0, 2, 9, 2, 0, 1, 3, 3, 1, 4, 0, 0, 0})
	f.Add([]byte{0 + 5*5, 200, 10, 90, 1, 4, 2, 1, 4, 0, 0, 0, 3 + 5*1, 200, 10, 90, 0 + 5*6, 30, 30, 30, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			return
		}
		leaves := []morton.Code{morton.Root}
		var changed []morton.Code
		balanced := false
		for i := 0; i+3 < len(ops); i += 4 {
			kind, a, b, c := ops[i], ops[i+1], ops[i+2], ops[i+3]
			level := kind / 5
			if kind%5 < 2 && len(leaves) > 20000 {
				continue
			}
			switch kind % 5 {
			case 0:
				q := point(a, b, c)
				leaves, changed = splitWhere(leaves, func(x morton.Code) bool { return x.Contains(q) }, 1+level%7, changed)
			case 1:
				leaves, changed = splitWhere(leaves, func(x morton.Code) bool { return mix(x, a)%uint64(2+b%5) == 0 }, 2+c%4, changed)
			case 2:
				leaves, changed = mergeWhere(leaves, func(x morton.Code) bool { return mix(x, a)%uint64(2+b%3) != 0 }, changed)
			case 3:
				q := point(a, b, c)
				leaves, changed = mergeWhere(leaves, func(x morton.Code) bool { return x.Level() >= level%4 && !x.Contains(q) }, changed)
			case 4:
				var full, seeded Closure
				want, _, wantSplits := full.Run(leaves, nil, nil)
				if balanced {
					got, gotSplits := seeded.RunFrom(leaves, changed, nil)
					if !slices.Equal(got, want) || !slices.Equal(gotSplits, wantSplits) {
						t.Fatalf("op %d: seeded closure: %d leaves, %d splits; full closure: %d leaves, %d splits",
							i/4, len(got), len(gotSplits), len(want), len(wantSplits))
					}
				}
				if !faceBalanced(want) {
					t.Fatalf("op %d: full closure left a 2:1 violation", i/4)
				}
				leaves, changed, balanced = slices.Clone(want), changed[:0], true
			}
		}
	})
}
