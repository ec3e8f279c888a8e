package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pmoctree/internal/morton"
)

// TestBuildMatchesReferenceAssembly pins Build's one-pass assembly over
// the sorted key index to the map-and-face-list oracle: every array the
// kernels read is bit-identical, on adaptive meshes (matched, coarser,
// finer and wall faces), uniform meshes and a single cell.
func TestBuildMatchesReferenceAssembly(t *testing.T) {
	meshes := map[string][]morton.Code{"single": {morton.Root}}
	for l := uint8(3); l <= 5; l++ {
		meshes[fmt.Sprintf("adaptive%d", l)] = adaptiveLeaves(l)
	}
	for l := uint8(1); l <= 4; l++ {
		meshes[fmt.Sprintf("uniform%d", l)] = uniformLeaves(l)
	}
	for name, leaves := range meshes {
		t.Run(name, func(t *testing.T) {
			got, err := Build(leaves)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceBuild(leaves)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.flatten()
			for _, a := range []struct {
				name      string
				got, want any
			}{
				{"codes", got.codes, want.codes},
				{"diag", got.diag, want.diag},
				{"rowStart", got.rowStart, want.rowStart},
				{"nb", got.nb, want.nb},
				{"tr", got.tr, want.tr},
				{"fdir", got.fdir, want.fdir},
				{"farea", got.farea, want.farea},
				{"extent", got.extent, want.extent},
				{"vol", got.vol, want.vol},
				{"keys", got.keys, want.keys},
				{"perm", got.perm, want.perm},
			} {
				// DeepEqual compares float64 elements with ==; no array
				// holds a NaN or a signed zero, so this is bit equality.
				if !reflect.DeepEqual(a.got, a.want) {
					t.Errorf("%s differs from the reference assembly", a.name)
				}
			}
		})
	}
}

// TestCSRMatchesReferenceBitIdentical pins every kernel of the CSR System
// to the AoS face-list oracle, on an adaptive mesh where matched, coarse,
// fine and wall faces all occur.
func TestCSRMatchesReferenceBitIdentical(t *testing.T) {
	leaves := adaptiveLeaves(4)
	csr, err := Build(leaves)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceBuild(leaves)
	if err != nil {
		t.Fatal(err)
	}
	n := csr.N()

	rng := rand.New(rand.NewSource(17))
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	check := func(kernel string, a, b []float64) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: cell %d: csr %v, reference %v (must be bit-identical)", kernel, i, a[i], b[i])
			}
		}
	}

	x, u, v, w, p := vec(), vec(), vec(), vec(), vec()
	ya, yb := make([]float64, n), make([]float64, n)

	csr.Apply(x, ya)
	ref.apply(x, yb)
	check("Apply", ya, yb)

	csr.ApplyNeumann(x, ya)
	ref.applyNeumann(x, yb)
	check("ApplyNeumann", ya, yb)

	csr.Divergence(u, v, w, ya)
	ref.divergence(u, v, w, yb)
	check("Divergence", ya, yb)

	gxa, gya, gza := make([]float64, n), make([]float64, n), make([]float64, n)
	gxb, gyb, gzb := make([]float64, n), make([]float64, n), make([]float64, n)
	csr.Gradient(p, gxa, gya, gza)
	ref.gradient(p, gxb, gyb, gzb)
	check("Gradient.x", gxa, gxb)
	check("Gradient.y", gya, gyb)
	check("Gradient.z", gza, gzb)

	csr.ProjectedDivergence(u, v, w, p, 0.01, ya)
	ref.projectedDivergence(u, v, w, p, 0.01, yb)
	check("ProjectedDivergence", ya, yb)

	// End-to-end: whole solves agree bitwise, iterations and all.
	b := vec()
	xa, xb := make([]float64, n), make([]float64, n)
	ra, err := csr.Solve(b, xa, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	rb := ref.solve(b, xb, Options{Tol: 1e-10})
	if ra != rb {
		t.Fatalf("Solve results diverged: csr %+v, reference %+v", ra, rb)
	}
	check("Solve.x", xa, xb)

	csr.Divergence(u, v, w, b)
	for i := range xa {
		xa[i], xb[i] = 0, 0
	}
	ra, err = csr.SolveNeumann(b, xa, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	rb = ref.solveNeumann(b, xb, Options{Tol: 1e-8})
	if ra != rb {
		t.Fatalf("SolveNeumann results diverged: csr %+v, reference %+v", ra, rb)
	}
	check("SolveNeumann.x", xa, xb)
}

// TestCellAtMatchesReference: the sorted-key binary search must locate
// exactly the cell the map-probe ancestor walk does, for random interior
// points, points on cell boundaries, and points outside the domain.
func TestCellAtMatchesReference(t *testing.T) {
	leaves := adaptiveLeaves(5)
	s, err := Build(leaves)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceBuild(leaves)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	probe := func(x, y, z float64) {
		t.Helper()
		i, ok := s.CellAt(x, y, z)
		j, ok2 := ref.cellAt(x, y, z)
		if ok != ok2 || (ok && i != j) {
			t.Fatalf("CellAt(%v, %v, %v) = (%d, %v), reference (%d, %v)", x, y, z, i, ok, j, ok2)
		}
	}
	for k := 0; k < 2000; k++ {
		probe(rng.Float64(), rng.Float64(), rng.Float64())
	}
	// Cell corners and centers of every cell.
	for _, c := range s.Codes() {
		x, y, z := c.Center()
		e := c.Extent()
		probe(x, y, z)
		probe(x-e/2, y-e/2, z-e/2)
	}
	// Outside and at the far boundary.
	probe(-0.1, 0.5, 0.5)
	probe(0.5, 1.0, 0.5)
	probe(1.5, 0.5, 0.5)
	probe(0, 0, 0)
}
