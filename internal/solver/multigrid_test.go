package solver

import (
	"fmt"
	"math"
	"testing"

	"pmoctree/internal/morton"
)

// TestHierarchyTilesEveryLevel: every coarse level Build derives is a
// tiling Build accepts on its own, one level shallower than the level
// above, and its child ranges partition the finer level's index, each
// fine cell lying in its range's owner.
func TestHierarchyTilesEveryLevel(t *testing.T) {
	meshes := map[string][]morton.Code{
		"uniform4": uniformLeaves(4),
		"flow":     flowLeaves(),
	}
	for l := uint8(3); l <= 6; l++ {
		meshes[fmt.Sprintf("adaptive%d", l)] = adaptiveLeaves(l)
	}
	for name, leaves := range meshes {
		t.Run(name, func(t *testing.T) {
			s, err := Build(leaves)
			if err != nil {
				t.Fatal(err)
			}
			sizes := []int{s.N()}
			for f := s; f.coarse != nil; f = f.coarse {
				c := f.coarse
				sizes = append(sizes, c.N())
				if _, err := Build(c.codes); err != nil {
					t.Fatalf("level of %d cells: %v", c.N(), err)
				}
				if f.N() <= coarsest || c.N() >= f.N() {
					t.Fatalf("level of %d cells coarsened to %d", f.N(), c.N())
				}
				if len(f.kids) != c.N()+1 || f.kids[0] != 0 || int(f.kids[c.N()]) != f.N() {
					t.Fatalf("child ranges %d long over [%d, %d), want %d over [0, %d)",
						len(f.kids), f.kids[0], f.kids[len(f.kids)-1], c.N()+1, f.N())
				}
				for j, owner := range c.codes {
					lo, hi := f.kids[j], f.kids[j+1]
					if lo >= hi {
						t.Fatalf("coarse cell %v owns the empty range [%d, %d)", owner, lo, hi)
					}
					for i := lo; i < hi; i++ {
						if fc := f.codes[i]; fc != owner && !owner.Contains(fc) {
							t.Fatalf("fine cell %v in the range of %v", fc, owner)
						}
					}
				}
			}
			if last := sizes[len(sizes)-1]; last > coarsest {
				t.Fatalf("bottom level has %d cells", last)
			}
			t.Logf("levels %v", sizes)
		})
	}
}

// TestMultigridIterationsFlatAcrossLevels: the V-cycle-preconditioned CG
// converges in a near-constant number of iterations as the adaptive mesh
// refines, where Jacobi-preconditioned CG (the oracle) grows like 1/h.
func TestMultigridIterationsFlatAcrossLevels(t *testing.T) {
	var iters, jacobi []int
	for level := uint8(3); level <= 6; level++ {
		leaves := adaptiveLeaves(level)
		s, err := Build(leaves)
		if err != nil {
			t.Fatal(err)
		}
		n := s.N()
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			b[i] = 3 * math.Pi * math.Pi * manufactured(s.Center(i))
		}
		res, err := s.Solve(b, make([]float64, n), Options{Tol: 1e-8})
		if err != nil || !res.Converged {
			t.Fatalf("level %d: %+v %v", level, res, err)
		}
		if res.Iterations > 20 {
			t.Errorf("level %d (%d cells): %d iterations, want <= 20", level, n, res.Iterations)
		}
		iters = append(iters, res.Iterations)
		ref, err := referenceBuild(leaves)
		if err != nil {
			t.Fatal(err)
		}
		jacobi = append(jacobi, ref.solve(b, make([]float64, n), Options{Tol: 1e-8}).Iterations)
	}
	if jacobi[len(jacobi)-1] < 2*iters[len(iters)-1] {
		t.Errorf("Jacobi CG %v not clearly above V-cycle CG %v at the finest level", jacobi, iters)
	}
	t.Logf("V-cycle CG iterations per level: %v; Jacobi CG: %v", iters, jacobi)
}

// TestMultigridZeroRHS: both solves return the exact zero solution on an
// all-zero right-hand side, whatever the warm start held.
func TestMultigridZeroRHS(t *testing.T) {
	s, err := Build(adaptiveLeaves(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, solve := range []func([]float64, []float64, Options) (Result, error){s.Solve, s.SolveNeumann} {
		b := make([]float64, s.N())
		x := make([]float64, s.N())
		x[0] = 3
		res, err := solve(b, x, Options{})
		if err != nil || !res.Converged || res.Iterations != 0 {
			t.Fatalf("%+v %v", res, err)
		}
		for i, v := range x {
			if v != 0 {
				t.Fatalf("x[%d] = %v", i, v)
			}
		}
	}
}
