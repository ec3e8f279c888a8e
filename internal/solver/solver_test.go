package solver

import (
	"fmt"
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

// flowLeaves returns the 51 808-cell mesh of the lifecycle benchmark's
// flow_projection workload: cmd/flow's "drop" scene, a sphere of liquid
// above a shallow pool, refined to level 6 around the liquid.
func flowLeaves() []morton.Code {
	tr := core.Create(core.Config{})
	tr.RefineWhere(func(c morton.Code) bool {
		x, y, z := c.Center()
		h := c.Extent()
		return flowLiquid(x, y, z) || flowLiquid(x+h, y, z) || flowLiquid(x-h, y, z) ||
			flowLiquid(x, y, z+h) || flowLiquid(x, y, z-h)
	}, 6)
	tr.Balance()
	return tr.LeafCodes()
}

// flowLiquid is the drop scene's initial liquid indicator.
func flowLiquid(x, y, z float64) bool {
	const r, cx, cy, cz = 0.15, 0.5, 0.5, 0.7
	dx, dy, dz := x-cx, y-cy, z-cz
	return dx*dx+dy*dy+dz*dz < r*r || z < 0.15
}

func TestBuildUniform(t *testing.T) {
	s, err := Build(uniformLeaves(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 64 {
		t.Fatalf("N = %d", s.N())
	}
	// Every cell has 6 faces on a uniform grid, and a row holds the
	// interior ones: 6 minus the cell's walls.
	for i, c := range s.Codes() {
		walls := 0
		x, y, z, _ := c.Decode()
		for _, v := range []uint32{x, y, z} {
			if v == 0 {
				walls++
			}
			if v == 3 {
				walls++
			}
		}
		if nf := s.rowStart[i+1] - s.rowStart[i]; nf != int32(6-walls) {
			t.Fatalf("cell %d (%d walls) has %d faces, want %d", i, walls, nf, 6-walls)
		}
	}
}

// TestBuildRejectsBadInput: every input that is not a 2:1-balanced tiling
// in Z-order is rejected with an error.
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
	shuffled := adaptiveLeaves(4)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(a, b int) {
		shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
	})
	for _, tc := range []struct {
		name   string
		leaves []morton.Code
	}{
		{"empty", nil},
		{"duplicate", []morton.Code{morton.Root, morton.Root}},
		{"missing octant", l1[:7]},
		{"unbalanced", tr.LeafCodes()},
		{"ancestor and descendant", []morton.Code{morton.Root, morton.Root.Child(0)}},
		// Octant 0 together with its first child, and octant 7 replaced
		// by seven of its eight children: the volume still sums to 1,
		// but the cells overlap in one place and leave a gap in another.
		{"overlap and gap", append(append(append([]morton.Code{}, l1[:7]...), l2[0]), l2[56:63]...)},
		// A valid tiling out of Z-order: Build searches its input in
		// place, so it refuses the order rather than sorting it.
		{"shuffled valid input", shuffled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if s, err := Build(tc.leaves); err == nil {
				t.Errorf("accepted %d cells", s.N())
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

// BenchmarkSolverBuild times Build on the 94 480-cell level-7 adaptive
// shell mesh: the Z-order tiling check, the face-neighbor searches
// and the CSR assembly.
func BenchmarkSolverBuild(b *testing.B) {
	leaves := adaptiveLeaves(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(leaves); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(leaves)), "cells")
}

// BenchmarkSolveNeumann times the projection solve of the flow_projection
// mesh's first fluid step at 1 and 2 workers: gravity has pulled the
// liquid down for one step, and the pressure removes the divergence that
// leaves. w1 over w2 is the projection's parallel speedup.
func BenchmarkSolveNeumann(b *testing.B) {
	s, err := Build(flowLeaves())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			s.SetWorkers(workers)
			benchSolveNeumann(b, s)
		})
	}
}

func benchSolveNeumann(b *testing.B, s *System) {
	n := s.N()
	const dt = 5e-3
	u, w, div := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range w {
		if flowLiquid(s.Center(i)) {
			w[i] = -dt * 9.81
		}
	}
	s.Divergence(u, u, w, div)
	for i := range div {
		div[i] /= -dt
	}
	x := make([]float64, n)
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		res, err := s.SolveNeumann(div, x, Options{Tol: 1e-8})
		if err != nil || !res.Converged {
			b.Fatalf("%+v %v", res, err)
		}
		iters += res.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric(float64(n), "cells")
}
