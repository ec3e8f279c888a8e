package solver

import (
	"math"
	"math/rand"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/octree"
	"pmoctree/internal/parallel"
)

func randomRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// TestCGWorkerCountInvariant is the PR's determinism acceptance check:
// parallel CG must produce bit-identical residuals, iteration counts and
// solutions for every worker count.
func TestCGWorkerCountInvariant(t *testing.T) {
	leaves := adaptiveLeaves(4)
	b := randomRHS(len(leaves), 3)

	solveWith := func(workers int) (Result, []float64) {
		s, err := Build(leaves)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		x := make([]float64, s.N())
		res, err := s.Solve(b, x, Options{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	}

	refRes, refX := solveWith(1)
	if !refRes.Converged {
		t.Fatalf("serial CG did not converge: %+v", refRes)
	}
	for _, workers := range []int{2, 4, 7} {
		res, x := solveWith(workers)
		if res.Iterations != refRes.Iterations {
			t.Errorf("workers=%d: %d iterations, serial took %d", workers, res.Iterations, refRes.Iterations)
		}
		if res.Residual != refRes.Residual {
			t.Errorf("workers=%d: residual %v, serial %v (must be bit-identical)", workers, res.Residual, refRes.Residual)
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("workers=%d: x[%d] = %v, serial %v (must be bit-identical)", workers, i, x[i], refX[i])
			}
		}
	}
}

// TestSolveNeumannWorkerCountInvariant: same contract for the singular
// projection solve.
func TestSolveNeumannWorkerCountInvariant(t *testing.T) {
	leaves := adaptiveLeaves(4)

	solveWith := func(workers int) (Result, []float64) {
		s, err := Build(leaves)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		n := s.N()
		// Divergence of a smooth velocity field: compatible by
		// construction (walls are impermeable).
		u := make([]float64, n)
		v := make([]float64, n)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			x, y, z := s.Center(i)
			u[i] = math.Sin(math.Pi * x)
			v[i] = math.Cos(math.Pi * y)
			w[i] = x * y * z
		}
		b := make([]float64, n)
		s.Divergence(u, v, w, b)
		x := make([]float64, n)
		res, err := s.SolveNeumann(b, x, Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	}

	refRes, refX := solveWith(1)
	if !refRes.Converged {
		t.Fatalf("serial SolveNeumann did not converge: %+v", refRes)
	}
	for _, workers := range []int{2, 4} {
		res, x := solveWith(workers)
		if res.Iterations != refRes.Iterations || res.Residual != refRes.Residual {
			t.Errorf("workers=%d: (iters %d, res %v), serial (%d, %v)",
				workers, res.Iterations, res.Residual, refRes.Iterations, refRes.Residual)
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("workers=%d: x[%d] differs bitwise", workers, i)
			}
		}
	}
}

// TestMultigridWorkerCountInvariant: the V-cycle's restriction and
// prolongation sweeps over the level hierarchy keep both solves
// bit-identical at every worker count, on the flow_projection mesh, whose
// two finest levels are large enough to sweep on the pool.
func TestMultigridWorkerCountInvariant(t *testing.T) {
	s, err := Build(flowLeaves())
	if err != nil {
		t.Fatal(err)
	}
	b := randomRHS(s.N(), 5)
	solveWith := func(workers int, neumann bool) (Result, []float64) {
		s.SetWorkers(workers)
		x := make([]float64, s.N())
		solve := s.Solve
		if neumann {
			solve = s.SolveNeumann
		}
		res, err := solve(b, x, Options{Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	}
	for _, neumann := range []bool{false, true} {
		refRes, refX := solveWith(1, neumann)
		if !refRes.Converged {
			t.Fatalf("neumann=%v: serial solve did not converge: %+v", neumann, refRes)
		}
		for _, workers := range []int{2, 4} {
			res, x := solveWith(workers, neumann)
			if res != refRes {
				t.Errorf("neumann=%v workers=%d: %+v, serial %+v", neumann, workers, res, refRes)
			}
			for i := range x {
				if x[i] != refX[i] {
					t.Fatalf("neumann=%v workers=%d: x[%d] differs bitwise", neumann, workers, i)
				}
			}
		}
	}
}

// TestCGZeroRHS: an all-zero right-hand side must return the converged
// zero solution, not NaN residuals from dividing by norm0 = 0.
func TestCGZeroRHS(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, err := Build(adaptiveLeaves(3))
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		n := s.N()
		b := make([]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i) - 7 // stale warm start that must be discarded
		}
		res, err := s.Solve(b, x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations != 0 {
			t.Fatalf("workers=%d: zero RHS gave %+v, want converged in 0 iterations", workers, res)
		}
		if math.IsNaN(res.Residual) {
			t.Fatalf("workers=%d: NaN residual on zero RHS", workers)
		}
		for i := range x {
			if x[i] != 0 {
				t.Fatalf("workers=%d: x[%d] = %v, want 0", workers, i, x[i])
			}
		}
	}
}

// TestSolveNeumannZeroRHS: the singular solve's zero-RHS answer is the
// mean-free representative x = 0, even from a nonzero warm start.
func TestSolveNeumannZeroRHS(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, err := Build(adaptiveLeaves(3))
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		n := s.N()
		b := make([]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i))
		}
		res, err := s.SolveNeumann(b, x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations != 0 {
			t.Fatalf("workers=%d: zero RHS gave %+v, want converged in 0 iterations", workers, res)
		}
		for i := range x {
			if x[i] != 0 {
				t.Fatalf("workers=%d: x[%d] = %v, want 0", workers, i, x[i])
			}
		}
	}
}

// benchSystem builds the full uniform mesh at the given level (level 6 =
// 64^3 = 262144 cells, the acceptance-criteria size).
func benchSystem(b *testing.B, level uint8) *System {
	b.Helper()
	tr := octree.New()
	tr.RefineWhere(func(morton.Code) bool { return true }, level)
	s, err := Build(tr.LeafCodes())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchSolve runs a fixed 30 CG iterations (tolerance unreachable) so
// all variants do identical work and ns/op compares cleanly. Serial is
// the same CSR sweep at one worker, so Serial-vs-Parallel isolates the
// scheduling win.
func benchSolve(b *testing.B, workers int) {
	s := benchSystem(b, 6)
	s.SetWorkers(workers)
	n := s.N()
	rhs := randomRHS(n, 11)
	x := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := s.Solve(rhs, x, Options{Tol: 1e-300, MaxIter: 30}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "cells")
	b.ReportMetric(float64(parallel.Clamp(workers)), "workers")
}

func BenchmarkSolveSerial(b *testing.B)   { benchSolve(b, 1) }
func BenchmarkSolveParallel(b *testing.B) { benchSolve(b, 4) }
