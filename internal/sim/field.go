package sim

import (
	"math"

	"pmoctree/internal/morton"
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
		return relax(f.Speed(), f.PhiAtStep(x, y, z, step), c.Extent(), data, 1)
	}
}

// relax applies up to sweeps relaxation updates to one cell's fields,
// given the field's level-set value phi at the cell center and the cell
// extent eps, and reports whether the first update changed them. The
// volume fraction, the pressure proxy's target and the velocity are pure
// in (phi, eps), so they are computed once; only the pressure proxy moves
// from sweep to sweep. An update that changes nothing leaves the cell at
// its fixed point, where every later one would change nothing either, so
// the loop stops there. No cell reads another, so a cell's sweeps run back
// to back give the fields that sweeping the whole mesh sweeps times gives.
func relax(speed, phi, eps float64, data *[DataWords]float64, sweeps int) bool {
	vof := quantize(smoothstep(-phi / eps))
	target := math.Exp(-math.Abs(phi) * 8)
	w := quantize(-speed * vof)
	for it := 0; it < sweeps; it++ {
		p := quantize(data[1] + 0.35*(target-data[1]))
		if data[0] == vof && data[1] == p && data[3] == w {
			return it > 0
		}
		data[0] = vof
		data[1] = p
		data[2] = 0
		data[3] = w
	}
	return true
}

// StepField advances mesh through one AMR time step of any workload:
// Refine, Coarsen, Balance, then SolverSweeps relaxation sweeps.
func StepField(m Mesh, f Field, step int, maxLevel uint8) StepCounts {
	return StepFieldPool(m, f, step, maxLevel, nil)
}
