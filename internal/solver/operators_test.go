package solver

import (
	"math"
	"math/rand"
	"testing"

	"pmoctree/internal/morton"
)

func TestDivergenceOfLinearField(t *testing.T) {
	s, err := Build(uniformLeaves(3))
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	u := make([]float64, n)
	v := make([]float64, n)
	w := make([]float64, n)
	out := make([]float64, n)
	// u = x, v = 2y, w = 3z: div = 6 in the interior (walls clamp the
	// boundary cells).
	for i := 0; i < n; i++ {
		x, y, z := s.Center(i)
		u[i], v[i], w[i] = x, 2*y, 3*z
	}
	s.Divergence(u, v, w, out)
	h := s.Extent(0)
	for i := 0; i < n; i++ {
		x, y, z := s.Center(i)
		interior := x > h && x < 1-h && y > h && y < 1-h && z > h && z < 1-h
		if interior && math.Abs(out[i]-6) > 1e-9 {
			t.Fatalf("interior divergence at cell %d = %v, want 6", i, out[i])
		}
	}
}

func TestGradientOfLinearField(t *testing.T) {
	s, err := Build(uniformLeaves(3))
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	p := make([]float64, n)
	gx := make([]float64, n)
	gy := make([]float64, n)
	gz := make([]float64, n)
	for i := 0; i < n; i++ {
		x, y, z := s.Center(i)
		p[i] = 2*x - y + 3*z
	}
	s.Gradient(p, gx, gy, gz)
	h := s.Extent(0)
	for i := 0; i < n; i++ {
		x, y, z := s.Center(i)
		interior := x > h && x < 1-h && y > h && y < 1-h && z > h && z < 1-h
		if !interior {
			continue // one-sided estimates at walls
		}
		if math.Abs(gx[i]-2) > 1e-9 || math.Abs(gy[i]+1) > 1e-9 || math.Abs(gz[i]-3) > 1e-9 {
			t.Fatalf("gradient at cell %d = (%v,%v,%v), want (2,-1,3)", i, gx[i], gy[i], gz[i])
		}
	}
}

func TestApplyNeumannNullSpace(t *testing.T) {
	s, err := Build(adaptiveLeaves(4))
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 7.25 // constants are the null space
	}
	s.ApplyNeumann(x, y)
	for i, v := range y {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("A_N * const != 0 at cell %d: %v", i, v)
		}
	}
}

func TestApplyNeumannSymmetric(t *testing.T) {
	s, err := Build(adaptiveLeaves(4))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	n := s.N()
	x := make([]float64, n)
	y := make([]float64, n)
	ax := make([]float64, n)
	ay := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	s.ApplyNeumann(x, ax)
	s.ApplyNeumann(y, ay)
	if l, rr := dot(ax, y), dot(x, ay); math.Abs(l-rr) > 1e-9*math.Max(math.Abs(l), 1) {
		t.Errorf("A_N not symmetric: %v vs %v", l, rr)
	}
}

func TestSolveNeumannManufactured(t *testing.T) {
	// p = cos(pi x) cos(pi y) cos(pi z) has zero normal derivative at the
	// walls; -lap p = 3 pi^2 p, and both sides are mean-free.
	s, err := Build(uniformLeaves(4))
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	b := make([]float64, n)
	x := make([]float64, n)
	exact := make([]float64, n)
	for i := 0; i < n; i++ {
		cx, cy, cz := s.Center(i)
		exact[i] = math.Cos(math.Pi*cx) * math.Cos(math.Pi*cy) * math.Cos(math.Pi*cz)
		b[i] = 3 * math.Pi * math.Pi * exact[i]
	}
	res, err := s.SolveNeumann(b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	// Relative L2 error against the (mean-free) exact solution.
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		e := s.Extent(i)
		v := e * e * e
		d := x[i] - exact[i]
		num += d * d * v
		den += exact[i] * exact[i] * v
	}
	if rel := math.Sqrt(num / den); rel > 0.05 {
		t.Errorf("Neumann solve relative L2 error %v", rel)
	}
}

func TestSolveNeumannMeanFree(t *testing.T) {
	s, err := Build(adaptiveLeaves(4))
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	b := make([]float64, n)
	x := make([]float64, n)
	r := rand.New(rand.NewSource(6))
	// A compatible (volume-mean-free) random source.
	var sum, vol float64
	for i := 0; i < n; i++ {
		b[i] = r.NormFloat64()
		e := s.Extent(i)
		sum += b[i] * e * e * e
		vol += e * e * e
	}
	for i := 0; i < n; i++ {
		b[i] -= sum / vol
	}
	if _, err := s.SolveNeumann(b, x, Options{}); err != nil {
		t.Fatal(err)
	}
	var xm float64
	for i := 0; i < n; i++ {
		e := s.Extent(i)
		xm += x[i] * e * e * e
	}
	if math.Abs(xm/vol) > 1e-9 {
		t.Errorf("solution mean %v not pinned to zero", xm/vol)
	}
}

func TestSolveNeumannVectorLength(t *testing.T) {
	s, _ := Build(uniformLeaves(1))
	if _, err := s.SolveNeumann(make([]float64, 1), make([]float64, s.N()), Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestProjectedDivergenceExact(t *testing.T) {
	// The face-corrected field after a Neumann solve is divergence-free
	// to solver tolerance — on uniform AND adaptive meshes.
	run := func(t *testing.T, s *System) {
		n := s.N()
		u := make([]float64, n)
		v := make([]float64, n)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			x, y, z := s.Center(i)
			u[i] = math.Sin(math.Pi * x)
			v[i] = math.Sin(math.Pi * y)
			w[i] = math.Sin(math.Pi * z)
		}
		div := make([]float64, n)
		s.Divergence(u, v, w, div)
		dt := 1e-3
		b := make([]float64, n)
		for i := range b {
			b[i] = -div[i] / dt
		}
		p := make([]float64, n)
		if _, err := s.SolveNeumann(b, p, Options{Tol: 1e-12}); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		s.ProjectedDivergence(u, v, w, p, dt, out)
		worst := 0.0
		for _, d := range out {
			if a := math.Abs(d); a > worst {
				worst = a
			}
		}
		maxDiv := 0.0
		for _, d := range div {
			if a := math.Abs(d); a > maxDiv {
				maxDiv = a
			}
		}
		if worst > maxDiv*1e-6 {
			t.Errorf("projected divergence %v vs initial %v: not face-exact", worst, maxDiv)
		}
	}
	s1, err := Build(uniformLeaves(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("uniform", func(t *testing.T) { run(t, s1) })
	s2, err := Build(adaptiveLeaves(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("adaptive", func(t *testing.T) { run(t, s2) })
}

func TestCellAt(t *testing.T) {
	s, err := Build(adaptiveLeaves(4))
	if err != nil {
		t.Fatal(err)
	}
	// Every cell center maps back to that cell.
	for i := 0; i < s.N(); i++ {
		x, y, z := s.Center(i)
		j, ok := s.CellAt(x, y, z)
		if !ok || j != i {
			t.Fatalf("CellAt(center of %d) = %d, %v", i, j, ok)
		}
	}
	// Out-of-domain points are rejected.
	for _, p := range [][3]float64{{-0.1, 0.5, 0.5}, {0.5, 1.0, 0.5}, {0.5, 0.5, 2}} {
		if _, ok := s.CellAt(p[0], p[1], p[2]); ok {
			t.Errorf("CellAt(%v) accepted an outside point", p)
		}
	}
}

// TestCellAtFarFaces locates points in the last MaxLevel voxel of the
// domain, on the far corner and on each far face alone, against a linear
// scan over the cells' float extents.
func TestCellAtFarFaces(t *testing.T) {
	far := math.Nextafter(1, 0)
	points := []struct {
		name    string
		x, y, z float64
	}{
		{"corner", far, far, far},
		{"x face", far, 0.3, 0.6},
		{"y face", 0.6, far, 0.3},
		{"z face", 0.3, 0.6, far},
	}
	for _, mesh := range []struct {
		name   string
		leaves []morton.Code
	}{{"uniform", uniformLeaves(2)}, {"adaptive", adaptiveLeaves(4)}} {
		s, err := Build(mesh.leaves)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			want := -1
			for i, c := range s.Codes() {
				x, y, z, _ := c.Decode()
				e := c.Extent()
				if in := func(v float64, a uint32) bool { return float64(a)*e <= v && v < float64(a+1)*e }; in(p.x, x) && in(p.y, y) && in(p.z, z) {
					want = i
				}
			}
			if got, ok := s.CellAt(p.x, p.y, p.z); !ok || got != want {
				t.Errorf("%s %s: CellAt = %d, %v; want %d", mesh.name, p.name, got, ok, want)
			}
		}
	}
}

func TestExtentCenterAccessors(t *testing.T) {
	s, _ := Build(uniformLeaves(1))
	if s.Extent(0) != 0.5 {
		t.Errorf("Extent = %v", s.Extent(0))
	}
	x, y, z := s.Center(0)
	if x != 0.25 || y != 0.25 || z != 0.25 {
		t.Errorf("Center = (%v,%v,%v)", x, y, z)
	}
}
