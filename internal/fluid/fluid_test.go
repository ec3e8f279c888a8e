package fluid

import (
	"errors"
	"math"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/octree"
	"pmoctree/internal/solver"
)

func uniformSystem(t *testing.T, l uint8) *solver.System {
	t.Helper()
	tr := octree.New()
	tr.RefineWhere(func(morton.Code) bool { return true }, l)
	s, err := solver.Build(tr.LeafCodes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func adaptiveSystem(t *testing.T) *solver.System {
	t.Helper()
	tr := octree.New()
	tr.RefineWhere(func(c morton.Code) bool {
		_, _, z := c.Center()
		// Region test: refine octants whose box intersects the liquid
		// pool region z < 0.4.
		return z-c.Extent()/2 < 0.4
	}, 4)
	tr.Balance()
	s, err := solver.Build(tr.LeafCodes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProjectionKillsDivergence(t *testing.T) {
	sys := uniformSystem(t, 3)
	st := NewState(sys)
	st.Gravity = 0
	// A divergent field compatible with no-penetration walls (normal
	// components vanish at the boundary, mean divergence is zero):
	// u = sin(pi x), v = sin(pi y), w = sin(pi z).
	for i := 0; i < sys.N(); i++ {
		x, y, z := sys.Center(i)
		st.U[i] = math.Sin(math.Pi * x)
		st.V[i] = math.Sin(math.Pi * y)
		st.W[i] = math.Sin(math.Pi * z)
	}
	before := st.MaxAbsDivergence()
	if before < 1 {
		t.Fatalf("test field not divergent: %v", before)
	}
	res, err := st.Step(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("projection solve did not converge: %+v", res)
	}
	// The face-corrected field is divergence-free to solver tolerance
	// (the exact discrete projection).
	if defect := st.FaceDivergenceDefect(); defect > before*1e-4 {
		t.Errorf("face-exact projection defect %v (initial %v)", defect, before)
	}
	// The collocated cell field is approximately projected: clearly
	// reduced, though not exactly zero.
	after := st.MaxAbsDivergence()
	if after > before/2 {
		t.Errorf("approximate projection reduced divergence only %vx (%v -> %v)",
			before/after, before, after)
	}
}

func TestStillFluidStaysStill(t *testing.T) {
	// Zero velocity, zero gravity: steps must not invent motion.
	sys := uniformSystem(t, 2)
	st := NewState(sys)
	st.Gravity = 0
	for s := 0; s < 5; s++ {
		if _, err := st.Step(1e-2); err != nil {
			t.Fatal(err)
		}
	}
	if ke := st.KineticEnergy(); ke > 1e-20 {
		t.Errorf("still fluid gained kinetic energy %v", ke)
	}
}

func TestGravityAcceleratesLiquidOnly(t *testing.T) {
	sys := uniformSystem(t, 3)
	st := NewState(sys)
	// A liquid blob in the lower half.
	for i := 0; i < sys.N(); i++ {
		_, _, z := sys.Center(i)
		if z < 0.3 {
			st.VOF[i] = 1
		}
	}
	if _, err := st.Step(1e-3); err != nil {
		t.Fatal(err)
	}
	// Liquid cells move down (negative w) more than gas cells gain.
	var liquidW, gasW float64
	var nl, ng int
	for i := 0; i < sys.N(); i++ {
		if st.VOF[i] > 0.5 {
			liquidW += st.W[i]
			nl++
		} else {
			gasW += st.W[i]
			ng++
		}
	}
	if nl == 0 || ng == 0 {
		t.Fatal("degenerate phase split")
	}
	if liquidW/float64(nl) >= gasW/float64(ng) {
		t.Errorf("liquid mean w %v not below gas mean w %v",
			liquidW/float64(nl), gasW/float64(ng))
	}
}

func TestAdvectionTransportsScalar(t *testing.T) {
	sys := uniformSystem(t, 4)
	st := NewState(sys)
	st.Gravity = 0
	// Uniform rightward flow carrying a blob.
	for i := 0; i < sys.N(); i++ {
		st.U[i] = 1
		x, y, z := sys.Center(i)
		if x < 0.3 && math.Abs(y-0.5) < 0.2 && math.Abs(z-0.5) < 0.2 {
			st.VOF[i] = 1
		}
	}
	// Center of mass before.
	com := func() float64 {
		m, mx := 0.0, 0.0
		for i := range st.VOF {
			h := sys.Extent(i)
			v := st.VOF[i] * h * h * h
			x, _, _ := sys.Center(i)
			m += v
			mx += v * x
		}
		return mx / m
	}
	x0 := com()
	dt := st.CFL() * 0.5
	for s := 0; s < 4; s++ {
		if _, err := st.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	x1 := com()
	if x1 <= x0 {
		t.Errorf("blob did not advect downstream: %v -> %v", x0, x1)
	}
}

func TestStepOnAdaptiveMesh(t *testing.T) {
	sys := adaptiveSystem(t)
	st := NewState(sys)
	for i := 0; i < sys.N(); i++ {
		_, _, z := sys.Center(i)
		if z < 0.25 {
			st.VOF[i] = 1
		}
	}
	for s := 0; s < 3; s++ {
		dt := math.Min(st.CFL()*0.5, 5e-3)
		res, err := st.Step(dt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("step %d projection diverged", s)
		}
	}
	// The field stays finite and the liquid stays roughly conserved
	// (piecewise-constant advection is diffusive, not explosive).
	for i := range st.U {
		if math.IsNaN(st.U[i]) || math.IsInf(st.U[i], 0) {
			t.Fatal("velocity blew up")
		}
	}
	if v := st.LiquidVolume(); v <= 0 || v > 0.5 {
		t.Errorf("liquid volume %v implausible", v)
	}
}

func TestCFLPositive(t *testing.T) {
	sys := uniformSystem(t, 2)
	st := NewState(sys)
	if st.CFL() <= 0 {
		t.Error("CFL of still field should be positive fallback")
	}
	st.U[0] = 100
	if dt := st.CFL(); dt <= 0 || dt > sys.Extent(0)/100+1e-12 {
		t.Errorf("CFL = %v", dt)
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	st := NewState(uniformSystem(t, 1))
	if _, err := st.Step(0); err == nil {
		t.Error("dt=0 accepted")
	}
}

// TestStepFailureLeavesFieldsUntouched: a step that cannot be taken, for
// a bad dt or a projection that does not converge, returns an error and
// changes no field. One non-finite velocity is enough to stop the
// projection: advection carries it into its neighbours' samples.
func TestStepFailureLeavesFieldsUntouched(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dt        float64
		spoil     func(st *State)
		projected bool // the failure is ErrNotConverged
	}{
		{"NaN dt", math.NaN(), func(*State) {}, false},
		{"negative dt", -1e-3, func(*State) {}, false},
		{"NaN velocity", 2e-3, func(st *State) { st.U[len(st.U)/2] = math.NaN() }, true},
		{"infinite velocity", 2e-3, func(st *State) { st.W[len(st.W)/3] = math.Inf(-1) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := pouredState(t, adaptiveSystem(t))
			if _, err := st.Step(2e-3); err != nil {
				t.Fatal(err)
			}
			tc.spoil(st)
			fields := [][]float64{st.U, st.V, st.W, st.VOF, st.P}
			var before [][]float64
			for _, f := range fields {
				before = append(before, append([]float64(nil), f...))
			}
			res, err := st.Step(tc.dt)
			if err == nil {
				t.Fatalf("step accepted: %+v", res)
			}
			if got := errors.Is(err, ErrNotConverged); got != tc.projected {
				t.Errorf("errors.Is(%v, ErrNotConverged) = %v", err, got)
			}
			for k, f := range fields {
				for i := range f {
					if math.Float64bits(f[i]) != math.Float64bits(before[k][i]) {
						t.Fatalf("field %d cell %d changed: %v -> %v", k, i, before[k][i], f[i])
					}
				}
			}
		})
	}
}
