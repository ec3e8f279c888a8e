package bulk

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// refineSet generates a leaf partition by recursive descent: split every
// octant satisfying pred until maxLevel. This mirrors what RefineWhere
// produces on a tree, without depending on core.
func refineSet(pred func(morton.Code) bool, maxLevel uint8) []morton.Code {
	var out []morton.Code
	var walk func(c morton.Code)
	walk = func(c morton.Code) {
		if c.Level() < maxLevel && pred(c) {
			for k := 0; k < 8; k++ {
				walk(c.Child(k))
			}
			return
		}
		out = append(out, c)
	}
	walk(morton.Root)
	return out
}

// shellPred refines octants whose cell crosses a sphere shell — the same
// interface-tracking shape the droplet workload pins, giving a realistic
// mix of levels.
func shellPred(c morton.Code) bool {
	cx, cy, cz := c.Center()
	d := math.Sqrt((cx-0.5)*(cx-0.5) + (cy-0.5)*(cy-0.5) + (cz-0.5)*(cz-0.5))
	half := c.Extent() * math.Sqrt(3) / 2
	return math.Abs(d-0.3) <= half
}

func checkTree(t *testing.T, tr *Tree, wantLeaves int) {
	t.Helper()
	if len(tr.Leaves) != wantLeaves {
		t.Fatalf("leaves = %d, want %d", len(tr.Leaves), wantLeaves)
	}
	nn := len(tr.Nodes)
	// Pre-order == ascending code order.
	for j := 1; j < nn; j++ {
		if tr.Nodes[j-1] >= tr.Nodes[j] {
			t.Fatalf("nodes not in code order at %d: %v >= %v", j, tr.Nodes[j-1], tr.Nodes[j])
		}
	}
	if tr.Parent[0] != -1 || tr.Nodes[0] != morton.Root {
		t.Fatalf("node 0 is %v with parent %d, want root with parent -1", tr.Nodes[0], tr.Parent[0])
	}
	leafSeen := 0
	for j := 0; j < nn; j++ {
		if li := tr.NodeLeaf[j]; li >= 0 {
			leafSeen++
			if tr.Leaves[li] != tr.Nodes[j] {
				t.Fatalf("leaf %d code mismatch: %v vs node %v", li, tr.Leaves[li], tr.Nodes[j])
			}
			for k := 0; k < 8; k++ {
				if tr.Children[8*j+k] != -1 {
					t.Fatalf("leaf node %d has child %d", j, k)
				}
			}
			continue
		}
		for k := 0; k < 8; k++ {
			ci := tr.Children[8*j+k]
			if ci < 0 {
				t.Fatalf("internal node %d missing child %d", j, k)
			}
			if tr.Nodes[ci] != tr.Nodes[j].Child(k) {
				t.Fatalf("node %d child %d is %v, want %v", j, k, tr.Nodes[ci], tr.Nodes[j].Child(k))
			}
			if tr.Parent[ci] != int32(j) {
				t.Fatalf("parent of node %d = %d, want %d", ci, tr.Parent[ci], j)
			}
		}
	}
	if leafSeen != wantLeaves {
		t.Fatalf("NodeLeaf marks %d leaves, want %d", leafSeen, wantLeaves)
	}
	var depth uint8
	var vol uint64
	for _, c := range tr.Leaves {
		if l := c.Level(); l > depth {
			depth = l
		}
		vol += cellVolume(c.Level())
	}
	if tr.Depth != depth {
		t.Fatalf("Depth = %d, want %d", tr.Depth, depth)
	}
	if vol != totalCells {
		t.Fatalf("leaf volumes sum to %d, want %d", vol, totalCells)
	}
}

func TestConstructRootOnly(t *testing.T) {
	tr, err := Construct([]morton.Code{morton.Root}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr, 1)
	if len(tr.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(tr.Nodes))
	}
}

func TestConstructShell(t *testing.T) {
	leaves := refineSet(shellPred, 5)
	tr, err := Construct(leaves, Options{Pool: parallel.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr, len(leaves))
	// SrcIdx must map every final leaf back to the identical input code
	// (no balancing happened: refineSet output is derived from a shell
	// predicate, but checkTree already proved the leaf count matches).
	for i, c := range tr.Leaves {
		if leaves[tr.SrcIdx[i]] != c {
			t.Fatalf("SrcIdx[%d] = %d names %v, want %v", i, tr.SrcIdx[i], leaves[tr.SrcIdx[i]], c)
		}
	}
}

// TestConstructShuffledInput proves input order is irrelevant: the sorted
// leaf set and the whole derived tree are identical, only SrcIdx differs.
func TestConstructShuffledInput(t *testing.T) {
	leaves := refineSet(shellPred, 4)
	shuffled := make([]morton.Code, len(leaves))
	// Deterministic LCG shuffle, no rand import needed.
	copy(shuffled, leaves)
	state := uint64(42)
	for i := len(shuffled) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	a, err := Construct(leaves, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Construct(shuffled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Nodes, b.Nodes) || !reflect.DeepEqual(a.Leaves, b.Leaves) {
		t.Fatal("shuffled input changed the derived tree")
	}
	for i := range b.Leaves {
		if shuffled[b.SrcIdx[i]] != b.Leaves[i] {
			t.Fatalf("shuffled SrcIdx[%d] wrong", i)
		}
	}
}

// TestConstructDeterministicAcrossWorkers is the worker-count invariance
// proof for the derivation itself: every pool width, including forced-width
// pools that schedule real goroutines on 1-CPU machines, yields a deeply
// equal Tree.
func TestConstructDeterministicAcrossWorkers(t *testing.T) {
	leaves := refineSet(shellPred, 5)
	ref, err := Construct(leaves, Options{Pool: nil, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	pools := []*parallel.Pool{parallel.New(1), parallel.New(2), parallel.New(4), parallel.New(7), parallel.NewForced(4), parallel.NewForced(7)}
	for _, p := range pools {
		got, err := Construct(leaves, Options{Pool: p, Balance: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("tree differs at %d workers", p.Workers())
		}
	}
}

// TestValidationErrors is the satellite table test: every malformed input
// class maps to its typed error, with deterministic positions.
func TestValidationErrors(t *testing.T) {
	level1 := make([]morton.Code, 8)
	for k := 0; k < 8; k++ {
		level1[k] = morton.Root.Child(k)
	}
	missing5 := append(append([]morton.Code{}, level1[:5]...), level1[6:]...)
	cases := []struct {
		name  string
		codes []morton.Code
		check func(t *testing.T, err error)
	}{
		{"empty", nil, func(t *testing.T, err error) {
			var ce *CoverageError
			if !errors.As(err, &ce) || ce.Cell != 0 || ce.Index != 0 {
				t.Fatalf("got %v, want coverage gap at cell 0", err)
			}
		}},
		{"level out of range", []morton.Code{morton.Root, morton.Code(63)}, func(t *testing.T, err error) {
			var oe *OutOfRangeError
			if !errors.As(err, &oe) || oe.Index != 1 {
				t.Fatalf("got %v, want out-of-range at index 1", err)
			}
		}},
		// The root with its x bit set: past the level-0 grid.
		{"morton bits past the grid", []morton.Code{morton.Root | 1<<63}, func(t *testing.T, err error) {
			var oe *OutOfRangeError
			if !errors.As(err, &oe) || oe.Index != 0 {
				t.Fatalf("got %v, want out-of-range at index 0", err)
			}
		}},
		// Child 5 of the root with the x bit of level 2's triple set: a
		// bit below level 1's resolution.
		{"stray morton bits", append(level1[:5:5], level1[5]|morton.Root.Child(0).Child(1)&^0x3f), func(t *testing.T, err error) {
			var oe *OutOfRangeError
			if !errors.As(err, &oe) || oe.Index != 5 {
				t.Fatalf("got %v, want out-of-range at index 5", err)
			}
		}},
		{"duplicate", append(append([]morton.Code{}, level1...), level1[3]), func(t *testing.T, err error) {
			var de *DuplicateCodeError
			if !errors.As(err, &de) {
				t.Fatalf("got %v, want duplicate", err)
			}
			if de.Code != level1[3] || de.First != 3 || de.Second != 8 {
				t.Fatalf("duplicate names %v (%d, %d), want %v (3, 8)", de.Code, de.First, de.Second, level1[3])
			}
		}},
		{"overlap", []morton.Code{morton.Root, morton.Root.Child(0)}, func(t *testing.T, err error) {
			var oe *OverlapError
			if !errors.As(err, &oe) {
				t.Fatalf("got %v, want overlap", err)
			}
			if oe.Ancestor != morton.Root || oe.Descendant != morton.Root.Child(0) {
				t.Fatalf("overlap names %v/%v", oe.Ancestor, oe.Descendant)
			}
			if oe.AncestorIndex != 0 || oe.DescendantIndex != 1 {
				t.Fatalf("overlap indices %d/%d, want 0/1", oe.AncestorIndex, oe.DescendantIndex)
			}
		}},
		{"interior gap", missing5, func(t *testing.T, err error) {
			var ce *CoverageError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v, want coverage", err)
			}
			if ce.Index != 5 || ce.Cell != 5*cellVolume(1) {
				t.Fatalf("gap at cell %d pos %d, want cell %d pos 5", ce.Cell, ce.Index, 5*cellVolume(1))
			}
		}},
		{"trailing gap", level1[:7], func(t *testing.T, err error) {
			var ce *CoverageError
			if !errors.As(err, &ce) || ce.Index != 7 || ce.Cell != 7*cellVolume(1) {
				t.Fatalf("got %v, want trailing gap at cell %d", err, 7*cellVolume(1))
			}
		}},
	}
	pools := []*parallel.Pool{nil, parallel.NewForced(4)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range pools {
				tr, err := Construct(tc.codes, Options{Pool: p})
				if err == nil {
					t.Fatalf("Construct accepted %s (%d nodes)", tc.name, len(tr.Nodes))
				}
				tc.check(t, err)
			}
		})
	}
}

// unbalancedSet descends to deep along the single chain of octants
// containing the point (0.49, 0.49, 0.49). A corner descent would be
// naturally graded, but this chain hugs the domain-center plane from
// inside child 0, so its deep leaves sit face-adjacent to untouched
// level-1 leaves across that plane: a guaranteed 2:1 violation.
func unbalancedSet(deep uint8) []morton.Code {
	return refineSet(func(c morton.Code) bool {
		x, y, z, l := c.Decode()
		p := uint32(float64(uint64(1)<<l) * 0.49)
		return x == p && y == p && z == p
	}, deep)
}

func faceBalanced(leaves []morton.Code) bool {
	var scratch [6]morton.Code
	for _, o := range leaves {
		if o.Level() < 2 {
			continue
		}
		for _, nb := range o.FaceNeighbors(scratch[:0]) {
			j, _ := morton.Container(leaves, nb)
			if int(o.Level())-int(leaves[j].Level()) > 1 {
				return false
			}
		}
	}
	return true
}

func TestBalanceClosure(t *testing.T) {
	in := unbalancedSet(6)
	if faceBalanced(in) {
		t.Fatal("test input is unexpectedly balanced")
	}
	out, err := Balance(in, parallel.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !faceBalanced(out) {
		t.Fatal("Balance output violates 2:1")
	}
	if len(out) <= len(in) {
		t.Fatalf("Balance did not split: %d -> %d", len(in), len(out))
	}
	// Idempotence: balancing a balanced set is the identity.
	again, err := Balance(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, again) {
		t.Fatal("Balance is not idempotent")
	}
	// Construct with Options.Balance reaches the same fixed point.
	tr, err := Construct(in, Options{Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Leaves, out) {
		t.Fatal("Construct{Balance} and Balance disagree")
	}
	checkTree(t, tr, len(out))
}

func TestComplementCover(t *testing.T) {
	if cov := ComplementCover(nil); len(cov) != 1 || cov[0] != morton.Root {
		t.Fatalf("cover of nothing = %v, want [root]", cov)
	}
	full := refineSet(shellPred, 4)
	if cov := ComplementCover(full); len(cov) != 0 {
		t.Fatalf("cover of a full partition has %d octants", len(cov))
	}
	// A key-span slice of the shell partition plus its cover must be a
	// partition again — exactly the shard-materialization shape.
	part := full[len(full)/3 : 2*len(full)/3]
	cov := ComplementCover(part)
	tr, err := Construct(append(append([]morton.Code{}, part...), cov...), Options{})
	if err != nil {
		t.Fatalf("slice+cover is not a partition: %v", err)
	}
	checkTree(t, tr, len(part)+len(cov))
	// The cover is minimal-ish sanity: every cover octant is outside the
	// kept span.
	lo := uint64(part[0])
	_, hiKey := part[len(part)-1].KeySpan()
	for _, c := range cov {
		if uint64(c) >= lo && uint64(c) <= hiKey {
			t.Fatalf("cover octant %v lies inside the kept span", c)
		}
	}
}

// TestIsInputError: the typed validation errors classify as input errors
// (also when wrapped), everything else does not — the contract pmserve's
// -materialize exit codes key off.
func TestIsInputError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"out-of-range", &OutOfRangeError{Index: 3}, true},
		{"duplicate", &DuplicateCodeError{First: 0, Second: 1}, true},
		{"overlap", &OverlapError{AncestorIndex: 0, DescendantIndex: 2}, true},
		{"coverage", &CoverageError{Cell: 7, Index: 9}, true},
		{"wrapped", fmt.Errorf("construct: %w", &DuplicateCodeError{}), true},
		{"plain", errors.New("disk on fire"), false},
		{"wrapped-plain", fmt.Errorf("outer: %w", errors.New("inner")), false},
	}
	for _, c := range cases {
		if got := IsInputError(c.err); got != c.want {
			t.Errorf("%s: IsInputError = %v, want %v", c.name, got, c.want)
		}
	}
}
