// Package fluid implements a Chorin projection-method incompressible flow
// step on adaptive octree meshes — a miniature of the Gerris solver the
// paper integrates PM-octree with (§4). One Step performs:
//
//  1. semi-Lagrangian advection of velocity and the tracked scalar
//     (volume fraction), sampling upstream through the graded mesh;
//  2. body force (gravity on the liquid phase);
//  3. pressure projection: solve lap(p) = div(u*)/dt with the
//     internal/solver Poisson operator and subtract grad(p) dt,
//     restoring (approximate) incompressibility.
//
// The state lives as flat per-cell vectors over a solver.System snapshot;
// LoadFrom/StoreTo move it between the octree's persistent fields and the
// solver, so a PM-octree-backed simulation can run real fluid steps and
// commit them every time step.
package fluid

import (
	"errors"
	"fmt"
	"math"

	"pmoctree/internal/parallel"
	"pmoctree/internal/solver"
)

// Serial cutoffs for pool.RunMin. Advection is the expensive sweep, so it
// parallelizes profitably on small meshes; the body-force and
// gradient-correction loops are a handful of flops per cell. One
// characteristic costs one container lookup plus eight corner lookups for
// all four fields together, which sets the advect cutoff.
const (
	minAdvect = 2048
	minAxpy   = 1 << 15
)

// State is the flow field on one mesh snapshot.
type State struct {
	Sys *solver.System
	// U, V, W are cell-centered velocity components; VOF is the liquid
	// volume fraction; P is the last projection pressure.
	U, V, W, VOF, P []float64

	// Gravity is the body acceleration along -z applied to liquid cells.
	Gravity float64

	// scratch; u2..p2 hold a step's new fields until its projection has
	// converged
	div, gx, gy, gz      []float64
	u2, v2, w2, vof2, p2 []float64
	lastDt               float64

	// pool schedules the advection sweep and the per-cell update loops;
	// nil runs them inline. The projection solve follows Sys's pool.
	pool *parallel.Pool
}

// SetWorkers sets the worker count for the flow step — the advection
// sampling sweep, the body-force and gradient-correction loops, and (via
// the system's pool) the pressure projection. n <= 0 selects GOMAXPROCS,
// 1 restores serial execution. The advected fields are bit-identical for
// every n (each cell's sample depends only on the previous field), and
// the projection's reductions are deterministic blocked sums.
func (st *State) SetWorkers(n int) {
	if n == 1 {
		st.SetPool(nil)
		return
	}
	st.SetPool(parallel.New(n))
}

// SetPool attaches a caller-owned pool to the state and its system; nil
// restores serial execution.
func (st *State) SetPool(p *parallel.Pool) {
	st.pool = p
	st.Sys.SetPool(p)
}

// NewState builds a zero flow state over the mesh cells.
func NewState(sys *solver.System) *State {
	n := sys.N()
	mk := func() []float64 { return make([]float64, n) }
	return &State{
		Sys: sys,
		U:   mk(), V: mk(), W: mk(), VOF: mk(), P: mk(),
		Gravity: 9.81,
		div:     mk(), gx: mk(), gy: mk(), gz: mk(),
		u2: mk(), v2: mk(), w2: mk(), vof2: mk(), p2: mk(),
	}
}

// CFL returns the largest dt satisfying a unit Courant number on the
// current field (the stable advection step).
func (st *State) CFL() float64 {
	dt := math.Inf(1)
	for i := range st.U {
		speed := math.Abs(st.U[i]) + math.Abs(st.V[i]) + math.Abs(st.W[i])
		if speed == 0 {
			continue
		}
		if c := st.Sys.Extent(i) / speed; c < dt {
			dt = c
		}
	}
	if math.IsInf(dt, 1) {
		return 1e-2
	}
	return dt
}

func lerpw(f, a float64) float64 {
	if a == 0 {
		return 1 - f
	}
	return f
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// ErrNotConverged reports a projection solve that stopped short of its
// tolerance. Step returns it wrapped and leaves every field as it was.
var ErrNotConverged = errors.New("fluid: pressure projection did not converge")

// Step advances the flow by dt. It fails, changing no field, when dt is
// not positive or the pressure projection does not converge (a
// non-finite field, for one).
func (st *State) Step(dt float64) (res solver.Result, err error) {
	if !(dt > 0) {
		return solver.Result{}, fmt.Errorf("fluid: non-positive dt %v", dt)
	}
	// The step is a chain of dependent sweeps, so it is one Warm scope of
	// the pool (DESIGN.md decision 11(b)).
	st.pool.Warm(func() { res, err = st.step(dt) })
	return res, err
}

func (st *State) step(dt float64) (solver.Result, error) {
	n := st.Sys.N()
	u, v, w, vof, p := st.u2, st.v2, st.w2, st.vof2, st.p2

	// 1. Semi-Lagrangian advection: trace the characteristic back and
	// sample the previous field there.
	st.advect(dt)

	// 2. Gravity acts on the liquid phase.
	st.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w[i] -= dt * st.Gravity * vof[i]
		}
	})

	// 3. Projection. The Neumann (no-penetration) pressure solve makes
	// the FACE-corrected field exactly divergence-free; the cell
	// velocities used for advection receive the cell-centered gradient
	// correction (the standard approximate projection on collocated
	// grids). The assembled operator is the NEGATIVE Laplacian, so the
	// right-hand side flips sign.
	st.Sys.Divergence(u, v, w, st.div)
	st.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.div[i] /= -dt
		}
	})
	for i := range p {
		p[i] = 0
	}
	res, err := st.Sys.SolveNeumann(st.div, p, solver.Options{Tol: 1e-8})
	if err != nil {
		return res, err
	}
	if !res.Converged {
		return res, fmt.Errorf("%w: relative residual %g after %d iterations", ErrNotConverged, res.Residual, res.Iterations)
	}
	st.Sys.Gradient(p, st.gx, st.gy, st.gz)
	st.pool.RunMin(n, minAxpy, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.U[i] = u[i] - dt*st.gx[i]
			st.V[i] = v[i] - dt*st.gy[i]
			st.W[i] = w[i] - dt*st.gz[i]
		}
	})
	copy(st.VOF, vof)
	copy(st.P, p)
	st.lastDt = dt
	return res, nil
}

// sample4 interpolates all four advected fields at one point: trilinear
// over a virtual uniform grid at the local cell size (exact on uniform
// regions; a consistent approximation across 2:1 coarse-fine boundaries).
// Piecewise-constant sampling would freeze any advection smaller than half
// a cell per step, so interpolation is essential for semi-Lagrangian
// transport. The container cell and the eight stencil corners are located
// once and the same weights applied to U, V, W and VOF. The point is
// expected near cell at and the corners near the container, so each
// search starts beside its hint.
func (st *State) sample4(at int, x, y, z float64) (u, v, w, vof float64) {
	i, ok := st.Sys.CellNear(at, x, y, z)
	if !ok {
		return 0, 0, 0, 0
	}
	h := st.Sys.Extent(i)
	gx, gy, gz := x/h-0.5, y/h-0.5, z/h-0.5
	ix, iy, iz := math.Floor(gx), math.Floor(gy), math.Floor(gz)
	fx, fy, fz := gx-ix, gy-iy, gz-iz
	for k := 0; k < 8; k++ {
		ax, ay, az := float64(k&1), float64((k>>1)&1), float64((k>>2)&1)
		wt := lerpw(fx, ax) * lerpw(fy, ay) * lerpw(fz, az)
		if wt == 0 {
			continue
		}
		px := clamp01((ix + ax + 0.5) * h)
		py := clamp01((iy + ay + 0.5) * h)
		pz := clamp01((iz + az + 0.5) * h)
		// Clamped corners lie in the domain, which the cells tile.
		j, _ := st.Sys.CellNear(i, px, py, pz)
		u += wt * st.U[j]
		v += wt * st.V[j]
		w += wt * st.W[j]
		vof += wt * st.VOF[j]
	}
	return
}

// advect performs the semi-Lagrangian transport of velocity and volume
// fraction into u2..vof2. Every cell samples only the PREVIOUS field, so
// the sweep parallelizes with bit-identical results.
func (st *State) advect(dt float64) {
	n := st.Sys.N()
	st.pool.RunMin(n, minAdvect, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cx, cy, cz := st.Sys.Center(i)
			bx := cx - dt*st.U[i]
			by := cy - dt*st.V[i]
			bz := cz - dt*st.W[i]
			st.u2[i], st.v2[i], st.w2[i], st.vof2[i] = st.sample4(i, bx, by, bz)
		}
	})
}

// MaxAbsDivergence returns the max-norm of the collocated cell-velocity
// divergence — the visible incompressibility defect of the approximate
// projection. The face-corrected field behind it is divergence-free to
// solver tolerance (see FaceDivergenceDefect).
func (st *State) MaxAbsDivergence() float64 {
	st.Sys.Divergence(st.U, st.V, st.W, st.div)
	m := 0.0
	for _, d := range st.div {
		if a := math.Abs(d); a > m {
			m = a
		}
	}
	return m
}

// FaceDivergenceDefect measures the divergence of the face-corrected
// field implied by the last projection: the pre-correction cell field is
// reconstructed by adding back dt*grad(P), then the pressure fluxes are
// applied on faces. Zero to solver tolerance by construction.
func (st *State) FaceDivergenceDefect() float64 {
	if st.lastDt == 0 {
		return st.MaxAbsDivergence()
	}
	n := st.Sys.N()
	st.Sys.Gradient(st.P, st.gx, st.gy, st.gz)
	for i := 0; i < n; i++ {
		st.u2[i] = st.U[i] + st.lastDt*st.gx[i]
		st.v2[i] = st.V[i] + st.lastDt*st.gy[i]
		st.w2[i] = st.W[i] + st.lastDt*st.gz[i]
	}
	st.Sys.ProjectedDivergence(st.u2, st.v2, st.w2, st.P, st.lastDt, st.div)
	m := 0.0
	for _, d := range st.div {
		if a := math.Abs(d); a > m {
			m = a
		}
	}
	return m
}

// LiquidVolume integrates the volume fraction.
func (st *State) LiquidVolume() float64 {
	v := 0.0
	for i, f := range st.VOF {
		e := st.Sys.Extent(i)
		v += f * e * e * e
	}
	return v
}

// KineticEnergy integrates u^2/2 over the domain.
func (st *State) KineticEnergy() float64 {
	e := 0.0
	for i := range st.U {
		h := st.Sys.Extent(i)
		vol := h * h * h
		e += 0.5 * vol * (st.U[i]*st.U[i] + st.V[i]*st.V[i] + st.W[i]*st.W[i])
	}
	return e
}
