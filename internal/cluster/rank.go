package cluster

import (
	"fmt"
	"math"

	"pmoctree/internal/core"
	"pmoctree/internal/etree"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
)

// Impl selects the octree implementation a simulation runs on.
type Impl string

// The three implementations of §5.1.
const (
	// PMOctree is the paper's contribution (internal/core).
	PMOctree Impl = "pm-octree"
	// InCore is the Gerris-style DRAM octree with periodic snapshot
	// files on NVBM.
	InCore Impl = "in-core"
	// OutOfCore is the Etree-style paged linear octree on NVBM.
	OutOfCore Impl = "out-of-core"
)

// rank is one simulated MPI process.
type rank struct {
	id   int
	mesh sim.Mesh
	devs []*nvbm.Device
	// lo/hi bound the owned key interval [lo, hi).
	lo, hi uint64

	pm     *core.Tree // non-nil for PMOctree ranks
	incore *sim.InCore
	etree  *etree.Tree

	ownedLeaves int
}

// newRank builds a rank of the chosen implementation.
func newRank(id int, impl Impl, dramBudget int, disableTransform bool, seed int64) *rank {
	r := &rank{id: id}
	switch impl {
	case PMOctree:
		nv := nvbm.New(nvbm.NVBM, 0)
		dr := nvbm.New(nvbm.DRAM, 0)
		r.pm = core.Create(core.Config{
			NVBMDevice:        nv,
			DRAMDevice:        dr,
			DRAMBudgetOctants: dramBudget,
			DisableTransform:  disableTransform,
			Seed:              seed + int64(id),
		})
		r.mesh = r.pm
		r.devs = []*nvbm.Device{nv, dr}
	case InCore:
		snap := nvbm.New(nvbm.NVBM, 0)
		r.incore = sim.NewInCore(snap)
		r.mesh = r.incore
		// Both the modeled DRAM traffic of the pointer tree and the
		// snapshot device count toward the rank's memory time.
		r.devs = []*nvbm.Device{snap, r.incore.Mem}
	case OutOfCore:
		dev := nvbm.New(nvbm.NVBM, 0)
		r.etree = etree.New(dev)
		r.mesh = r.etree
		r.devs = []*nvbm.Device{dev}
	default:
		panic(fmt.Sprintf("cluster: unknown implementation %q", impl))
	}
	return r
}

// memNs sums modeled nanoseconds across the rank's devices.
func (r *rank) memNs() float64 {
	var ns uint64
	for _, d := range r.devs {
		ns += d.Stats().ModeledNs
	}
	return float64(ns)
}

// nvbmStats aggregates NVBM device statistics.
func (r *rank) nvbmStats() nvbm.Stats {
	var s nvbm.Stats
	for _, d := range r.devs {
		if d.Kind() == nvbm.NVBM {
			s = s.Add(d.Stats())
		}
	}
	return s
}

// ownsSpan reports whether the octant's descendant key span overlaps the
// rank's interval — the refinement-ownership test.
func (r *rank) ownsSpan(c morton.Code) bool {
	lo, hi := c.KeySpan()
	return lo < r.hi && r.lo <= hi
}

// ownsLeaf reports whether a leaf belongs to this rank (by its own key).
func (r *rank) ownsLeaf(c morton.Code) bool {
	return r.lo <= uint64(c) && uint64(c) < r.hi
}

// refinePred restricts the workload's refinement to the owned interval.
func (r *rank) refinePred(base func(morton.Code) bool) func(morton.Code) bool {
	return func(c morton.Code) bool {
		return r.ownsSpan(c) && base(c)
	}
}

// coarsenPred coarsens where the workload allows it or where the rank no
// longer owns the region (migration-out after repartitioning).
func (r *rank) coarsenPred(base func(morton.Code) bool) func(morton.Code) bool {
	return func(c morton.Code) bool {
		if !r.ownsSpan(c) {
			return true
		}
		return base(c)
	}
}

// ownedLeafKeys appends the keys of leaves owned by this rank. PM-octree
// ranks prune the walk to the owned key interval; the baselines scan and
// filter.
func (r *rank) ownedLeafKeys(dst []uint64) []uint64 {
	if r.pm != nil {
		r.pm.ForEachLeafInRange(r.lo, r.hi, func(c morton.Code, _ [sim.DataWords]float64) bool {
			dst = append(dst, uint64(c))
			return true
		})
		return dst
	}
	r.mesh.ForEachLeaf(func(c morton.Code, _ [sim.DataWords]float64) bool {
		if r.ownsLeaf(c) {
			dst = append(dst, uint64(c))
		}
		return true
	})
	return dst
}

// surfaceLeafEstimate approximates the number of owned leaves on the
// rank's subdomain boundary (ghost-exchange volume for Balance):
// leaves^(2/3) for a compact 3-D region.
func (r *rank) surfaceLeafEstimate() int {
	return int(math.Ceil(math.Pow(float64(r.ownedLeaves), 2.0/3.0)))
}
