package fluid

import (
	"math"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/octree"
	"pmoctree/internal/solver"
	"pmoctree/internal/telemetry"
)

func pouredState(t testing.TB, sys *solver.System) *State {
	st := NewState(sys)
	for i := 0; i < sys.N(); i++ {
		x, y, z := sys.Center(i)
		if z < 0.4 {
			st.VOF[i] = 1
		}
		st.U[i] = 0.3 * math.Sin(math.Pi*x) * math.Cos(math.Pi*z)
		st.V[i] = 0.2 * math.Sin(math.Pi*y)
		st.W[i] = -0.4 * math.Sin(math.Pi*z)
	}
	return st
}

// TestStepWorkerCountInvariant: a full solve+advect step — projection,
// gravity, semi-Lagrangian advection — must leave every field bit-identical
// regardless of worker count.
func TestStepWorkerCountInvariant(t *testing.T) {
	tr := octree.New()
	tr.RefineWhere(func(c morton.Code) bool {
		_, _, z := c.Center()
		return z-c.Extent()/2 < 0.45
	}, 4)
	tr.Balance()

	run := func(workers int) *State {
		sys, err := solver.Build(tr.LeafCodes())
		if err != nil {
			t.Fatal(err)
		}
		st := pouredState(t, sys)
		st.SetWorkers(workers)
		for step := 0; step < 3; step++ {
			if _, err := st.Step(2e-3); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	ref := run(1)
	for _, workers := range []int{2, 4} {
		st := run(workers)
		fields := []struct {
			name     string
			got, ref []float64
		}{
			{"U", st.U, ref.U}, {"V", st.V, ref.V}, {"W", st.W, ref.W},
			{"VOF", st.VOF, ref.VOF}, {"P", st.P, ref.P},
		}
		for _, f := range fields {
			for i := range f.got {
				if f.got[i] != f.ref[i] {
					t.Fatalf("workers=%d: %s[%d] = %v, serial %v (must be bit-identical)",
						workers, f.name, i, f.got[i], f.ref[i])
				}
			}
		}
	}
}

// TestAdvectFusedMatchesReference pins the fused sampler to the per-field
// oracle: the same corner cells, weights and accumulation order must give
// bit-identical fields.
func TestAdvectFusedMatchesReference(t *testing.T) {
	tr := octree.New()
	tr.RefineWhere(func(c morton.Code) bool {
		_, _, z := c.Center()
		return z-c.Extent()/2 < 0.45
	}, 4)
	tr.Balance()

	run := func(reference bool) *State {
		sys, err := solver.Build(tr.LeafCodes())
		if err != nil {
			t.Fatal(err)
		}
		st := pouredState(t, sys)
		for step := 0; step < 4; step++ {
			if reference {
				st.advectRef(2e-3)
			} else {
				st.advect(2e-3)
			}
			copy(st.U, st.u2)
			copy(st.V, st.v2)
			copy(st.W, st.w2)
			copy(st.VOF, st.vof2)
		}
		return st
	}

	fused, ref := run(false), run(true)
	fields := []struct {
		name     string
		got, ref []float64
	}{
		{"U", fused.U, ref.U}, {"V", fused.V, ref.V},
		{"W", fused.W, ref.W}, {"VOF", fused.VOF, ref.VOF},
	}
	for _, f := range fields {
		for i := range f.got {
			if f.got[i] != f.ref[i] {
				t.Fatalf("%s[%d] = %v, reference %v (must be bit-identical)",
					f.name, i, f.got[i], f.ref[i])
			}
		}
	}
}

// benchAdvect times one semi-Lagrangian advection sweep over a uniform
// 32^3 mesh — the per-cell octree point lookups are the hot path. Serial
// is the same fused sweep at one worker, so Serial-vs-Parallel isolates
// the scheduling win.
func benchAdvect(b *testing.B, workers int) {
	tr := octree.New()
	tr.RefineWhere(func(morton.Code) bool { return true }, 5)
	sys, err := solver.Build(tr.LeafCodes())
	if err != nil {
		b.Fatal(err)
	}
	st := pouredState(b, sys)
	st.SetWorkers(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.advect(1e-3)
	}
	b.ReportMetric(float64(sys.N()), "cells")
}

func BenchmarkAdvectSerial(b *testing.B)   { benchAdvect(b, 1) }
func BenchmarkAdvectParallel(b *testing.B) { benchAdvect(b, 4) }

// TestSetWorkersSharesOnePool: the state and its system run on one pool,
// so a state has one helper team; one worker means no pool at all.
func TestSetWorkersSharesOnePool(t *testing.T) {
	st := NewState(uniformSystem(t, 4))
	st.SetWorkers(2)
	if st.pool == nil || st.pool.Workers() != 2 {
		t.Fatalf("SetWorkers(2): state pool %v", st.pool)
	}
	// The system's sweeps must show up in the state pool's telemetry.
	reg := telemetry.NewRegistry()
	st.pool.Instrument(reg, "pool")
	st.Sys.ApplyNeumann(st.U, st.div)
	if runs := reg.Snapshot().Counters["pool.runs"]; runs != 1 {
		t.Fatalf("a system sweep made %d runs on the state's pool, want 1", runs)
	}
	st.SetWorkers(1)
	if st.pool != nil || st.Sys.Workers() != 1 {
		t.Fatalf("SetWorkers(1): state pool %v, system workers %d", st.pool, st.Sys.Workers())
	}
}
