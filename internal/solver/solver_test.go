package solver

import (
	"math"
	"math/rand"
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/octree"
)

// uniformLeaves returns the codes of a uniform level-l tiling.
func uniformLeaves(l uint8) []morton.Code {
	tr := octree.New()
	tr.RefineWhere(func(morton.Code) bool { return true }, l)
	return tr.LeafCodes()
}

// adaptiveLeaves returns a balanced adaptive tiling refined around a
// sphere surface.
func adaptiveLeaves(maxLevel uint8) []morton.Code {
	tr := octree.New()
	tr.RefineWhere(func(c morton.Code) bool {
		x, y, z := c.Center()
		h := c.Extent()
		d := math.Sqrt((x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5))
		return math.Abs(d-0.3) < h
	}, maxLevel)
	tr.Balance()
	return tr.LeafCodes()
}

func TestBuildUniform(t *testing.T) {
	s, err := Build(uniformLeaves(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 64 {
		t.Fatalf("N = %d", s.N())
	}
	// Every cell has exactly 6 faces on a uniform grid.
	for i := 0; i < s.N(); i++ {
		if nf := s.rowStart[i+1] - s.rowStart[i]; nf != 6 {
			t.Fatalf("cell %d has %d faces", i, nf)
		}
	}
}

// TestBuildRejectsBadInput: every input that is not a 2:1-balanced tiling
// is rejected with an error, and a valid input in any order is accepted
// with cell i equal to input leaf i.
func TestBuildRejectsBadInput(t *testing.T) {
	// An unbalanced mesh: level-1 cell adjacent to level-3 cells.
	tr := octree.New()
	n := tr.Refine(tr.Root)[0]
	n2 := tr.Refine(n)[7]
	tr.Refine(n2)
	if tr.IsBalanced() {
		t.Fatal("configuration unexpectedly balanced")
	}
	l1, l2 := uniformLeaves(1), uniformLeaves(2)
	adaptive := adaptiveLeaves(4)
	shuffled := append([]morton.Code(nil), adaptive...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(a, b int) {
		shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
	})
	for _, tc := range []struct {
		name   string
		leaves []morton.Code
		valid  bool
	}{
		{"empty", nil, false},
		{"duplicate", []morton.Code{morton.Root, morton.Root}, false},
		{"missing octant", l1[:7], false},
		{"unbalanced", tr.LeafCodes(), false},
		{"ancestor and descendant", []morton.Code{morton.Root, morton.Root.Child(0)}, false},
		// Octant 0 together with its first child, and octant 7 replaced
		// by seven of its eight children: the volume still sums to 1,
		// but the cells overlap in one place and leave a gap in another.
		{"overlap and gap", append(append(append([]morton.Code{}, l1[:7]...), l2[0]), l2[56:63]...), false},
		{"shuffled valid input", shuffled, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Build(tc.leaves)
			if !tc.valid {
				if err == nil {
					t.Errorf("accepted %d cells", s.N())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range s.Codes() {
				if c != tc.leaves[i] {
					t.Fatalf("cell %d is %v, input leaf %d is %v", i, c, i, tc.leaves[i])
				}
			}
			// The operator is the sorted input's, permuted: face order
			// does not depend on the input order, so Apply agrees bit
			// for bit.
			sorted, err := Build(adaptive)
			if err != nil {
				t.Fatal(err)
			}
			at := make(map[morton.Code]int, len(adaptive))
			for i, c := range adaptive {
				at[c] = i
			}
			x, xs := make([]float64, len(adaptive)), make([]float64, len(adaptive))
			for i := range x {
				x[i] = float64(i%7) - 3
			}
			for i, c := range tc.leaves {
				xs[i] = x[at[c]]
			}
			y, ys := make([]float64, len(x)), make([]float64, len(x))
			sorted.Apply(x, y)
			s.Apply(xs, ys)
			for i, c := range tc.leaves {
				if ys[i] != y[at[c]] {
					t.Fatalf("Apply at %v: shuffled %v, sorted %v", c, ys[i], y[at[c]])
				}
			}
		})
	}
}

func TestOperatorSymmetricPositiveDefinite(t *testing.T) {
	for _, leaves := range [][]morton.Code{uniformLeaves(2), adaptiveLeaves(4)} {
		s, err := Build(leaves)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		n := s.N()
		x := make([]float64, n)
		y := make([]float64, n)
		ax := make([]float64, n)
		ay := make([]float64, n)
		for trial := 0; trial < 5; trial++ {
			for i := range x {
				x[i] = r.NormFloat64()
				y[i] = r.NormFloat64()
			}
			s.Apply(x, ax)
			s.Apply(y, ay)
			// Symmetry: <Ax, y> == <x, Ay>.
			lhs, rhs := dot(ax, y), dot(x, ay)
			if math.Abs(lhs-rhs) > 1e-9*math.Max(math.Abs(lhs), 1) {
				t.Fatalf("operator not symmetric: %v vs %v (n=%d)", lhs, rhs, n)
			}
			// Positive definiteness: <Ax, x> > 0 for x != 0.
			if q := dot(ax, x); q <= 0 {
				t.Fatalf("operator not positive definite: %v", q)
			}
		}
	}
}

// manufactured solution p = sin(pi x) sin(pi y) sin(pi z), zero on the
// boundary; f = -lap p = 3 pi^2 p.
func manufactured(x, y, z float64) float64 {
	return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
}

func solveManufactured(t *testing.T, leaves []morton.Code) (l2, h float64) {
	t.Helper()
	s, err := Build(leaves)
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	b := make([]float64, n)
	x := make([]float64, n)
	minH := 1.0
	for i, c := range s.codes {
		cx, cy, cz := c.Center()
		b[i] = 3 * math.Pi * math.Pi * manufactured(cx, cy, cz)
		if e := c.Extent(); e < minH {
			minH = e
		}
	}
	res, err := s.Solve(b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	num, den := 0.0, 0.0
	for i, c := range s.codes {
		cx, cy, cz := c.Center()
		e := c.Extent()
		v := e * e * e
		d := x[i] - manufactured(cx, cy, cz)
		num += d * d * v
		den += manufactured(cx, cy, cz) * manufactured(cx, cy, cz) * v
	}
	return math.Sqrt(num / den), minH
}

func TestPoissonConvergesWithRefinement(t *testing.T) {
	e3, _ := solveManufactured(t, uniformLeaves(3))
	e4, _ := solveManufactured(t, uniformLeaves(4))
	if e3 > 0.1 {
		t.Errorf("level-3 relative L2 error %v too large", e3)
	}
	// Second-order scheme: halving h should cut the error ~4x; accept 3x.
	if e4 > e3/3 {
		t.Errorf("no second-order convergence: %v -> %v", e3, e4)
	}
}

func TestPoissonOnAdaptiveMesh(t *testing.T) {
	err2, _ := solveManufactured(t, adaptiveLeaves(4))
	if err2 > 0.15 {
		t.Errorf("adaptive-mesh relative L2 error %v", err2)
	}
}

func TestSolveFromPMOctree(t *testing.T) {
	// End to end: mesh with PM-octree, solve, write the pressure back.
	tree := core.Create(core.Config{})
	tree.RefineWhere(func(c morton.Code) bool { return c.Level() < 3 }, 3)
	tree.Balance()
	s, err := Build(tree.LeafCodes())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, s.N())
	x := make([]float64, s.N())
	for i, c := range s.Codes() {
		cx, cy, cz := c.Center()
		b[i] = 3 * math.Pi * math.Pi * manufactured(cx, cy, cz)
	}
	if _, err := s.Solve(b, x, Options{}); err != nil {
		t.Fatal(err)
	}
	// Store the solution into the octree fields.
	byCode := map[morton.Code]float64{}
	for i, c := range s.Codes() {
		byCode[c] = x[i]
	}
	n := tree.UpdateLeaves(func(c morton.Code, d *[core.DataWords]float64) bool {
		d[1] = byCode[c]
		return true
	})
	if n == 0 {
		t.Error("no pressures written back")
	}
	tree.Persist()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	s, err := Build(uniformLeaves(2))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, s.N())
	x := make([]float64, s.N())
	x[3] = 5 // non-zero start must be driven to the zero solution
	res, err := s.Solve(b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("zero RHS did not converge")
	}
	for i, v := range x {
		if math.Abs(v) > 1e-6 {
			t.Fatalf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestSolveVectorLengthChecked(t *testing.T) {
	s, _ := Build(uniformLeaves(1))
	if _, err := s.Solve(make([]float64, 3), make([]float64, s.N()), Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMaxIterBound(t *testing.T) {
	s, _ := Build(uniformLeaves(3))
	b := make([]float64, s.N())
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, s.N())
	res, err := s.Solve(b, x, Options{Tol: 1e-14, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged in 2 iterations to 1e-14; suspicious")
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}
