package fluid

import (
	"math"
	"math/rand"
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

// stencilMeshes are the cmd/flow scenes' meshes (dam break, drop, jet:
// every octant within a cell and a half of the initial liquid refined to
// level 5, then balanced) and a uniform 32^3 mesh.
func stencilMeshes(t testing.TB) map[string]*solver.System {
	gap := func(lo, hi, p float64) float64 { return max(lo-p, p-hi, 0) }
	scenes := map[string]func(lo, hi [3]float64) bool{
		"dambreak": func(lo, hi [3]float64) bool { return lo[0] < 0.3 && lo[2] < 0.5 },
		"drop": func(lo, hi [3]float64) bool {
			dx, dy, dz := gap(lo[0], hi[0], 0.5), gap(lo[1], hi[1], 0.5), gap(lo[2], hi[2], 0.7)
			return dx*dx+dy*dy+dz*dz < 0.15*0.15 || lo[2] < 0.15
		},
		"jet": func(lo, hi [3]float64) bool {
			dx, dy := gap(lo[0], hi[0], 0.5), gap(lo[1], hi[1], 0.5)
			return dx*dx+dy*dy < 0.08*0.08 && hi[2] > 0.8
		},
		"uniform": func(lo, hi [3]float64) bool { return true },
	}
	out := map[string]*solver.System{}
	for name, overlaps := range scenes {
		tr := octree.New()
		tr.RefineWhere(func(c morton.Code) bool {
			x, y, z := c.Center()
			h := 1.5 * c.Extent()
			return overlaps([3]float64{x - h, y - h, z - h}, [3]float64{x + h, y + h, z + h})
		}, 5)
		tr.Balance()
		sys, err := solver.Build(tr.LeafCodes())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sys
	}
	return out
}

// TestAdvectStencilTable: the stencil table advection fills is the search
// it replaces, and advection through it is worker-count invariant. On each
// mesh a random velocity field (walls included, so traced points leave
// their cells and the domain) is advected at the drivers' half-CFL step
// and at twice the CFL step, on fresh systems at 1, 2 and 4 workers. The
// fields must be bit-identical, and every table entry equal to the cell
// holding its clamped corner point (CellAt, whose answer CellNear shares).
// Run it under -race: the workers fill the table concurrently.
func TestAdvectStencilTable(t *testing.T) {
	for name, mesh := range stencilMeshes(t) {
		codes := mesh.Codes()
		rng := rand.New(rand.NewSource(int64(len(codes))))
		vel := make([][3]float64, len(codes))
		for i := range vel {
			vel[i] = [3]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		}
		run := func(workers int) *State {
			sys, err := solver.Build(codes)
			if err != nil {
				t.Fatal(err)
			}
			st := NewState(sys)
			for i, u := range vel {
				st.U[i], st.V[i], st.W[i] = u[0], u[1], u[2]
				st.VOF[i] = float64(i%7) / 6
			}
			st.SetWorkers(workers)
			cfl := st.CFL()
			for _, dt := range []float64{0.5 * cfl, 2 * cfl} {
				st.advect(dt)
				copy(st.U, st.u2)
				copy(st.V, st.v2)
				copy(st.W, st.w2)
				copy(st.VOF, st.vof2)
			}
			return st
		}
		ref := run(1)
		for _, workers := range []int{2, 4} {
			st := run(workers)
			for _, f := range []struct {
				name     string
				got, ref []float64
			}{
				{"U", st.U, ref.U}, {"V", st.V, ref.V},
				{"W", st.W, ref.W}, {"VOF", st.VOF, ref.VOF},
			} {
				for i := range f.got {
					if f.got[i] != f.ref[i] {
						t.Fatalf("%s, %d workers: %s[%d] = %v, serial %v (must be bit-identical)",
							name, workers, f.name, i, f.got[i], f.ref[i])
					}
				}
			}
		}
		// Reading an entry back returns what the sweep stored; entries it
		// never used are searched now, under the same rule.
		for i, c := range codes {
			cx, cy, cz := c.Center()
			h := c.Extent()
			for k := 0; k < 27; k++ {
				dx, dy, dz := k%3-1, k/3%3-1, k/9-1
				want, ok := ref.Sys.CellAt(
					clamp01(cx+float64(dx)*h), clamp01(cy+float64(dy)*h), clamp01(cz+float64(dz)*h))
				if got := ref.Sys.StencilCell(i, dx, dy, dz); !ok || got != want {
					t.Fatalf("%s: StencilCell(%d, %d, %d, %d) = %d, CellAt %d", name, i, dx, dy, dz, got, want)
				}
			}
		}
	}
}

// TestAdvectWarmAllocatesNothing: once the table is filled, an advection
// sweep allocates nothing.
func TestAdvectWarmAllocatesNothing(t *testing.T) {
	st := pouredState(t, adaptiveSystem(t))
	st.advect(1e-3)
	if avg := testing.AllocsPerRun(10, func() { st.advect(1e-3) }); avg != 0 {
		t.Fatalf("a warm advect made %v allocations, want 0", avg)
	}
}

// benchAdvect times one warm semi-Lagrangian advection sweep over a
// uniform 32^3 mesh: a first sweep fills the stencil table before the
// timer starts (BenchmarkAdvectFirstStep times that one). Serial is the
// same fused sweep at one worker, so Serial-vs-Parallel isolates the
// scheduling win.
func benchAdvect(b *testing.B, workers int) {
	tr := octree.New()
	tr.RefineWhere(func(morton.Code) bool { return true }, 5)
	sys, err := solver.Build(tr.LeafCodes())
	if err != nil {
		b.Fatal(err)
	}
	st := pouredState(b, sys)
	st.SetWorkers(workers)
	st.advect(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.advect(1e-3)
	}
	b.ReportMetric(float64(sys.N()), "cells")
}

func BenchmarkAdvectSerial(b *testing.B)   { benchAdvect(b, 1) }
func BenchmarkAdvectParallel(b *testing.B) { benchAdvect(b, 4) }

// BenchmarkAdvectFirstStep times one serial advection sweep on a fresh
// system, so the stencil table's allocation and fill show beside the warm
// BenchmarkAdvectSerial on the same mesh. Building the system is not timed.
func BenchmarkAdvectFirstStep(b *testing.B) {
	tr := octree.New()
	tr.RefineWhere(func(morton.Code) bool { return true }, 5)
	leaves := tr.LeafCodes()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := solver.Build(leaves)
		if err != nil {
			b.Fatal(err)
		}
		st := pouredState(b, sys)
		b.StartTimer()
		st.advect(1e-3)
	}
	b.ReportMetric(float64(len(leaves)), "cells")
}

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
