package sim

import (
	"math"

	"pmoctree/internal/morton"
)

// halfDiag returns half the space diagonal of an octant.
func halfDiag(c morton.Code) float64 {
	return c.Extent() * math.Sqrt(3) / 2
}

// Speed returns the jet's characteristic velocity (Field).
func (d *Droplet) Speed() float64 { return d.cfg.JetSpeed }

// RefinePred returns the refinement criterion for step s (see
// RefinePredOf).
func (d *Droplet) RefinePred(step int) func(morton.Code) bool {
	return RefinePredOf(d, step)
}

// CoarsenPred returns the coarsening criterion for step s (see
// CoarsenPredOf).
func (d *Droplet) CoarsenPred(step int) func(morton.Code) bool {
	return CoarsenPredOf(d, step)
}

// Feature returns the feature-directed sampling predicate for the next
// step (see FeatureOf).
func (d *Droplet) Feature(nextStep int) func(morton.Code) bool {
	return FeatureOf(d, nextStep)
}

// StepCounts reports what one AMR step did.
type StepCounts struct {
	Refined   int // leaf splits (Refine routine)
	Coarsened int // sibling collapses (Coarsen routine)
	Balanced  int // splits forced by the 2:1 constraint (Balance routine)
	Solved    int // leaves whose field values changed (Solve routine)
	Leaves    int // mesh elements after the step
}

// SolverSweeps is the number of relaxation sweeps the Solve routine makes
// per time step, as an incompressible flow solver iterates its pressure
// solve every step. No cell's update reads another cell, so the tiled
// step (and ConstructInitial) runs a cell's sweeps back to back in one
// pass and stops at its fixed point; only the per-leaf path, for meshes
// without a leaf index, still walks the tree once per sweep, reading and
// writing the octants near the interface each time.
const SolverSweeps = 6

// Step advances mesh through one AMR time step of the droplet workload:
// Refine, Coarsen, Balance, then Solve (an iterative finite-volume-style
// relaxation of leaf fields toward the interface model). Persistence is
// the caller's policy — PM-octree persists every step, the in-core
// baseline snapshots periodically, the out-of-core baseline is implicitly
// persistent.
func Step(m Mesh, d *Droplet, step int, maxLevel uint8) StepCounts {
	return StepField(m, d, step, maxLevel)
}

// Solve returns the per-leaf relaxation sweep for step s: the volume
// fraction is re-sampled from the interface model, and the pressure proxy
// relaxes toward its target (one Jacobi-style iteration per sweep), so
// repeated sweeps converge. Leaves whose quantized values do not change
// (the far field, and converged cells on later sweeps) report false, so
// persistent implementations skip the write — this locality is what
// produces the paper's high inter-step overlap ratios. Fields are
// quantized to solver precision: far-field cells whose values drift below
// it are genuinely unchanged, matching a real solver's converged far
// field; without this, every cell would be rewritten every step and no
// version sharing could survive.
func (d *Droplet) Solve(step int) func(morton.Code, *[DataWords]float64) bool {
	return SolveOf(d, step)
}

// quantize rounds to the solver's field precision (1e-3).
func quantize(v float64) float64 {
	return math.Round(v*1000) / 1000
}

// smoothstep clamps v into [0,1] with a cubic ramp over [-1, 1].
func smoothstep(v float64) float64 {
	t := (v + 1) / 2
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return t * t * (3 - 2*t)
}

// LiquidVolume integrates the volume fraction over the mesh — the
// conserved quantity tests use to validate the simulation.
func LiquidVolume(m Mesh) float64 {
	v := 0.0
	m.ForEachLeaf(func(c morton.Code, data [DataWords]float64) bool {
		e := c.Extent()
		v += data[0] * e * e * e
		return true
	})
	return v
}
