// Package pmoctree is a Go implementation of PM-octree — the persistent,
// multi-version octree for non-volatile byte-addressable memory (NVBM)
// described in "Large-Scale Adaptive Mesh Simulations Through Non-Volatile
// Byte-Addressable Memory" (SC '17) — together with everything needed to
// reproduce the paper's evaluation: an NVBM emulator, the in-core and
// out-of-core (Etree-style) baselines, the three motivating AMR workloads
// (droplet ejection, drop impact, nucleate boiling), mesh extraction with
// VTK export, a Poisson/projection flow solver, and a distributed-scaling
// simulator.
//
// # Quick start
//
//	tree := pmoctree.Create(pmoctree.Config{})
//	tree.RefineWhere(myCriterion, 6)     // meshing
//	tree.Persist()                       // pm_persistent: commit V(i)
//	// ... crash ...
//	tree, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: survivingDevice})
//
// The working version V(i) shares all unmodified octants with the last
// committed version V(i-1); every mutation is copy-on-write, so a
// consistent version always exists in NVBM and restart is
// near-instantaneous (§3.4 of the paper).
//
// Layout management is automatic: hot subtrees (identified by
// feature-directed sampling over the functions you register with
// SetFeatures) live in DRAM (the C0 tree), cold subtrees in NVBM (C1),
// and the split adapts as the access pattern moves (§3.3).
package pmoctree

import (
	"pmoctree/internal/core"
	"pmoctree/internal/etree"
	"pmoctree/internal/fluid"
	"pmoctree/internal/mesh"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/octree"
	"pmoctree/internal/parallel"
	"pmoctree/internal/sim"
	"pmoctree/internal/solver"
)

// Tree is a PM-octree (the paper's contribution). See Create and Restore.
type Tree = core.Tree

// Config parameterizes a PM-octree: DRAM budget for the C0 tree,
// merge/GC thresholds, the transformation threshold T_transform, sampling
// size N_sample, and the backing devices.
type Config = core.Config

// Octant is the decoded view of one octree node.
type Octant = core.Octant

// Ref is a region-tagged persistent reference to an octant.
type Ref = core.Ref

// Feature is an application-level predicate pre-executed by
// feature-directed sampling to find hot subtrees (§3.3).
type Feature = core.Feature

// OpStats counts structural operations (refines, COW copies, merges, GC
// passes, layout transformations).
type OpStats = core.OpStats

// VersionStats describes structural sharing between the working and
// committed versions (Figure 3's metrics).
type VersionStats = core.VersionStats

// DataWords is the number of float64 field values carried per octant.
const DataWords = core.DataWords

// Create builds a new PM-octree and commits its root as the first
// persistent version (pm_create).
func Create(cfg Config) *Tree { return core.Create(cfg) }

// Restore reopens a PM-octree from a surviving NVBM device (pm_restore).
// Recovery returns the last committed version; octants reachable only
// from the lost working version are reclaimed by the next GC.
func Restore(cfg Config) (*Tree, error) { return core.Restore(cfg) }

// Code is a 3-D locational code: level plus Morton-interleaved anchor.
type Code = morton.Code

// Root is the locational code of the root octant (the unit cube).
const Root = morton.Root

// MaxLevel is the deepest supported refinement level.
const MaxLevel = morton.MaxLevel

// Encode builds the code for the octant at (x, y, z) on the 2^level grid.
func Encode(x, y, z uint32, level uint8) Code { return morton.Encode(x, y, z, level) }

// Device is an emulated memory device (DRAM or NVBM) with deterministic
// latency accounting, wear tracking, and crash/persistence semantics.
type Device = nvbm.Device

// DeviceStats is a snapshot of a device's access counters.
type DeviceStats = nvbm.Stats

// NewNVBM creates an emulated NVBM device (Table 2 latencies: 100 ns
// reads, 150 ns writes).
func NewNVBM() *Device { return nvbm.New(nvbm.NVBM, 0) }

// NewDRAM creates an emulated DRAM device (60 ns reads and writes).
func NewDRAM() *Device { return nvbm.New(nvbm.DRAM, 0) }

// OpenDeviceFile reopens an NVBM device image written by
// Device.PersistFile — the restart-from-disk path.
func OpenDeviceFile(path string) (*Device, error) { return nvbm.OpenFile(path) }

// AdaptiveMesh is the operation set shared by all three octree
// implementations: PM-octree, the in-core baseline, and the out-of-core
// baseline.
type AdaptiveMesh = sim.Mesh

// Droplet is the droplet-ejection workload of §5.1: an analytic moving
// liquid interface (jet, pinch-off, capillary breakup) that drives
// adaptive refinement.
type Droplet = sim.Droplet

// DropletConfig parameterizes the workload, including the number of
// simultaneous jets (a printhead) used for weak scaling.
type DropletConfig = sim.DropletConfig

// NewDroplet builds the workload.
func NewDroplet(cfg DropletConfig) *Droplet { return sim.NewDroplet(cfg) }

// Workload is a time-dependent implicit interface driving adaptive
// meshing: the surface is the zero level set of PhiAtStep. The three
// workloads the paper's introduction motivates — droplet ejection, drop
// impact, and nucleate boiling — all implement it.
type Workload = sim.Field

// DropImpact is the drop-impact-on-a-solid-surface workload: free fall,
// lamella spreading with a crown rim, relaxation.
type DropImpact = sim.DropImpact

// ImpactConfig parameterizes the drop-impact workload.
type ImpactConfig = sim.ImpactConfig

// NewDropImpact builds the workload.
func NewDropImpact(cfg ImpactConfig) *DropImpact { return sim.NewDropImpact(cfg) }

// Boiling is the rapid-boiling workload: vapor bubbles nucleating on a
// heated floor under a liquid pool, growing, detaching and rising.
type Boiling = sim.Boiling

// BoilingConfig parameterizes the boiling workload.
type BoilingConfig = sim.BoilingConfig

// NewBoiling builds the workload.
func NewBoiling(cfg BoilingConfig) *Boiling { return sim.NewBoiling(cfg) }

// WorkloadFeature returns the feature-directed-sampling predicate for a
// workload's next step; hand it to Tree.SetFeatures before Persist.
func WorkloadFeature(w Workload, nextStep int) core.Feature { return sim.FeatureOf(w, nextStep) }

// StepCounts reports what one AMR step did.
type StepCounts = sim.StepCounts

// Step advances any AdaptiveMesh through one AMR time step of the
// workload: Refine, Coarsen, Balance, Solve.
func Step(m AdaptiveMesh, w Workload, step int, maxLevel uint8) StepCounts {
	return sim.StepField(m, w, step, maxLevel)
}

// StepWorkers is Step with the predicate and leaf-solve evaluation fanned
// out over a deterministic worker pool. Results are bit-identical to Step
// for every worker count; workers <= 0 means GOMAXPROCS.
func StepWorkers(m AdaptiveMesh, w Workload, step int, maxLevel uint8, workers int) StepCounts {
	return sim.StepWorkers(m, w, step, maxLevel, workers)
}

// StepPool is StepWorkers with an explicit (possibly shared, possibly
// instrumented) pool. A nil pool runs serially.
func StepPool(m AdaptiveMesh, w Workload, step int, maxLevel uint8, pool *WorkerPool) StepCounts {
	return sim.StepFieldPool(m, w, step, maxLevel, pool)
}

// ConstructInitialStep is the scenario start-up fast path: on a fresh
// PM-octree it builds the workload's step-s mesh — leaf set, 2:1 balance,
// and solved fields — in one bulk construction instead of thousands of
// incremental splits, bit-identical to StepPool of the same step. ok is
// false (and the mesh untouched) when the mesh does not support bulk
// construction or is not fresh; fall back to StepPool then.
func ConstructInitialStep(m AdaptiveMesh, w Workload, step int, maxLevel uint8, pool *WorkerPool) (StepCounts, bool) {
	return sim.ConstructInitial(m, w, step, maxLevel, pool)
}

// WorkerPool is the deterministic bounded worker pool behind every
// parallel path (solver sweeps, advection, AMR predicate evaluation). A
// nil *WorkerPool runs inline on the calling goroutine; reductions are
// blocked so results do not depend on the worker count.
type WorkerPool = parallel.Pool

// NewWorkerPool builds a pool with the given worker count (<= 0 means
// GOMAXPROCS). Share one pool across subsystems via their SetPool methods.
func NewWorkerPool(workers int) *WorkerPool { return parallel.New(workers) }

// InCoreMesh is the Gerris-style baseline: an ephemeral pointer octree in
// DRAM that persists by writing whole snapshot files.
type InCoreMesh = sim.InCore

// NewInCoreMesh builds the in-core baseline; snapshotDev (may be nil)
// receives periodic snapshot files.
func NewInCoreMesh(snapshotDev *Device) *InCoreMesh { return sim.NewInCore(snapshotDev) }

// OutOfCoreMesh is the Etree-style baseline: a paged linear octree with a
// B-tree index, accessed through a file-system interface.
type OutOfCoreMesh = etree.Tree

// NewOutOfCoreMesh builds the out-of-core baseline on dev.
func NewOutOfCoreMesh(dev *Device) *OutOfCoreMesh { return etree.New(dev) }

// OpenOutOfCoreMesh reopens an out-of-core mesh after a restart.
func OpenOutOfCoreMesh(dev *Device) (*OutOfCoreMesh, error) { return etree.Open(dev) }

// PointerOctree is the raw ephemeral octree underlying the in-core
// baseline, exposed for direct use.
type PointerOctree = octree.Tree

// NewPointerOctree builds an empty pointer octree.
func NewPointerOctree() *PointerOctree { return octree.New() }

// AutoTuner adjusts the C0 DRAM budget between steps from observed merge
// pressure and idle capacity — the paper's §6 future work.
type AutoTuner = core.AutoTuner

// NewAutoTuner returns the default tuning policy over [min, max] octants.
func NewAutoTuner(minBudget, maxBudget int) *AutoTuner {
	return core.NewAutoTuner(minBudget, maxBudget)
}

// PoissonSystem is the finite-volume Poisson operator assembled on a
// 2:1-balanced mesh snapshot — the pressure solver of a projection-method
// flow step.
type PoissonSystem = solver.System

// SolverOptions tunes the V-cycle-preconditioned conjugate-gradient
// iteration.
type SolverOptions = solver.Options

// SolverResult reports a completed linear solve.
type SolverResult = solver.Result

// BuildPoisson assembles the operator from a tree's leaf codes, e.g.
// BuildPoisson(tree.LeafCodes()). The leaves must be in Z-order
// (ascending codes), as Tree.LeafCodes returns them; any other order is
// refused with the same error as a gap or an overlap.
func BuildPoisson(leaves []Code) (*PoissonSystem, error) { return solver.Build(leaves) }

// FlowState is a Chorin projection-method incompressible flow field on a
// mesh snapshot: semi-Lagrangian advection, gravity, and a face-exact
// pressure projection per Step.
type FlowState = fluid.State

// NewFlowState builds a zero flow state over the system's cells.
func NewFlowState(sys *PoissonSystem) *FlowState { return fluid.NewState(sys) }

// HexMesh is an unstructured hexahedral mesh extracted from octree leaves
// (the Extract routine), with anchored/dangling node classification.
type HexMesh = mesh.Mesh

// Extract builds a HexMesh from any leaf iterator, e.g.
// Extract(tree.ForEachLeaf).
func Extract(leaves func(fn func(code Code, data [DataWords]float64) bool)) *HexMesh {
	return mesh.Extract(leaves)
}
