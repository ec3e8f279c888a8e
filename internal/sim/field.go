package sim

import (
	"math"

	"pmoctree/internal/morton"
	"pmoctree/internal/tile"
)

// Field is a time-dependent implicit interface driving adaptive meshing:
// the liquid (or vapor) surface is the zero level set of Phi, negative
// inside. The droplet-ejection, drop-impact and boiling workloads all
// implement it, so the AMR step driver and the distributed simulation run
// any of them interchangeably.
type Field interface {
	// PhiAtStep evaluates the approximate signed distance at step s.
	PhiAtStep(x, y, z float64, step int) float64
	// Steps is the nominal workload length.
	Steps() int
	// Speed is the characteristic interface velocity, used by the solve
	// phase's velocity field.
	Speed() float64
}

// RefinePredOf returns the refinement criterion for step s on any field:
// an octant refines while its region may intersect the interface band.
// The test is conservative by the octant's half-diagonal, so coarse
// octants crossed by the surface always refine.
func RefinePredOf(f Field, step int) func(morton.Code) bool {
	return func(c morton.Code) bool {
		x, y, z := c.Center()
		phi := f.PhiAtStep(x, y, z, step)
		return math.Abs(phi) <= halfDiag(c)*1.05
	}
}

// CoarsenPredOf returns the coarsening criterion for step s: a sibling
// group collapses when its parent's region is comfortably clear of the
// interface (hysteresis avoids refine/coarsen thrash).
func CoarsenPredOf(f Field, step int) func(morton.Code) bool {
	return func(c morton.Code) bool {
		x, y, z := c.Center()
		phi := f.PhiAtStep(x, y, z, step)
		return math.Abs(phi) > 2.2*halfDiag(c)
	}
}

// FeatureOf returns the feature function handed to PM-octree's
// feature-directed sampling (§3.3): the next step's refinement criterion,
// pre-executed to predict which subtrees the coming step will touch.
func FeatureOf(f Field, nextStep int) func(morton.Code) bool {
	return RefinePredOf(f, nextStep)
}

// SolveOf returns the per-leaf relaxation sweep for step s (see
// Droplet.Solve for the field semantics).
func SolveOf(f Field, step int) func(morton.Code, *[DataWords]float64) bool {
	return func(c morton.Code, data *[DataWords]float64) bool {
		x, y, z := c.Center()
		return solveCell(f.Speed(), f.PhiAtStep(x, y, z, step), c, data)
	}
}

// solveCell applies one relaxation update given the field's level-set
// value at the cell center. Splitting phi out lets the parallel step
// driver pre-evaluate the (expensive, pure) level set once per step and
// share it across all SolverSweeps sweeps with bit-identical results.
func solveCell(speed, phi float64, c morton.Code, data *[DataWords]float64) bool {
	eps := c.Extent()
	vof := quantize(smoothstep(-phi / eps))
	target := math.Exp(-math.Abs(phi) * 8)
	p := quantize(data[1] + 0.35*(target-data[1]))
	w := quantize(-speed * vof)
	if data[0] == vof && data[1] == p && data[3] == w {
		return false
	}
	data[0] = vof
	data[1] = p
	data[2] = 0
	data[3] = w
	return true
}

// solveCellFlat is solveCell operating on cell i of the tiled SoA store
// instead of an octant payload: the two MUST stay in lockstep term for
// term — same expressions, same evaluation order, same change test — so
// the tiled sweep is bit-identical to the per-leaf one (the coherence
// tests pin this). phi and eps arrive precomputed (the level set is pure
// in (cell, step); eps is the cell extent).
func solveCellFlat(speed, phi, eps float64, i int, st *tile.Store) bool {
	f0, f1, f3 := st.F[0], st.F[1], st.F[3]
	vof := quantize(smoothstep(-phi / eps))
	target := math.Exp(-math.Abs(phi) * 8)
	p := quantize(f1[i] + 0.35*(target-f1[i]))
	w := quantize(-speed * vof)
	if f0[i] == vof && f1[i] == p && f3[i] == w {
		return false
	}
	f0[i] = vof
	f1[i] = p
	st.F[2][i] = 0
	f3[i] = w
	return true
}

// StepField advances mesh through one AMR time step of any workload:
// Refine, Coarsen, Balance, then SolverSweeps relaxation sweeps.
func StepField(m Mesh, f Field, step int, maxLevel uint8) StepCounts {
	return StepFieldPool(m, f, step, maxLevel, nil)
}
