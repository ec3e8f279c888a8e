package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/telemetry"
)

// ErrOutOfDomain is returned for query coordinates outside the unit cube
// the octree discretizes.
var ErrOutOfDomain = fmt.Errorf("serve: coordinates outside the [0,1) domain")

// ErrBadRegion is returned for an empty or inverted region box.
var ErrBadRegion = fmt.Errorf("serve: region box is empty or inverted")

// ErrBadField is returned for an aggregation field outside the octant
// data words.
var ErrBadField = fmt.Errorf("serve: field index outside octant data")

// version is the shared, lazily indexed state of one pinned committed
// version. All Snapshot handles on the same version share it.
type version struct {
	pin *core.VersionPin

	// The Morton leaf index: leaves in Z-order with their pre-order keys,
	// plus the maximum leaf depth (bounds ancestor descent charges).
	// Built once, on first query, with one charged walk of the pinned
	// version; leaf data is embedded, so the query hot path never touches
	// the arena again. Guarded by mu rather than sync.Once: a build
	// aborted by a fault-injection panic (chaos soak cuts power under
	// readers) must stay unbuilt and be retried, not be poisoned empty.
	mu     sync.Mutex
	built  bool
	leaves []core.LeafEntry
	keys   []uint64
	depth  uint8
}

// Snapshot is one acquired, refcounted read handle on a pinned committed
// version. Handles are cheap; every Acquire returns a fresh one and every
// handle must be closed exactly once. All query methods are safe for
// concurrent use from any goroutine, concurrently with the simulation
// writer.
type Snapshot struct {
	v      *version
	closed atomic.Bool
}

// acquire mints a new handle sharing this handle's version.
func (s *Snapshot) acquire() *Snapshot {
	s.v.pin.Retain()
	return &Snapshot{v: s.v}
}

// Close releases the handle's reference. The version becomes reclaimable
// once the catalog and every other handle have released theirs.
func (s *Snapshot) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.v.pin.Release()
	}
}

// Step returns the committed step this snapshot serves.
func (s *Snapshot) Step() uint64 { return s.v.pin.Step() }

// LeafCount returns the number of leaves in the version (building the
// index if needed).
func (s *Snapshot) LeafCount() int {
	s.v.ensure()
	return len(s.v.leaves)
}

// ensure builds the Morton leaf index on first use, reporting whether
// this call did the build — the caller that pays the build records it as
// an index_build trace span; everyone else rides the cached index.
func (v *version) ensure() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.built {
		return false
	}
	var leaves []core.LeafEntry
	depth := uint8(0)
	v.pin.ForEachNode(func(_ core.Ref, o *core.Octant) bool {
		if o.IsLeaf() {
			leaves = append(leaves, core.LeafEntry{Code: o.Code, Data: o.Data})
			if l := o.Code.Level(); l > depth {
				depth = l
			}
		}
		return true
	})
	keys := make([]uint64, len(leaves))
	for i := range leaves {
		keys[i] = leaves[i].Code.Key()
	}
	v.leaves, v.keys, v.depth = leaves, keys, depth
	v.built = true
	return true
}

// ensureTraced builds the index like ensure, recording an index_build
// span on tc when this call paid for the build.
func (v *version) ensureTraced(tc *telemetry.TraceContext) {
	if tc == nil {
		v.ensure()
		return
	}
	sp := tc.StartSpan("index_build")
	if v.ensure() {
		sp.End()
	}
}

// cellAt maps a point to its MaxLevel cell code. The domain is the unit
// cube; coordinates must lie in [0, 1).
func cellAt(x, y, z float64) (morton.Code, error) {
	const n = 1 << morton.MaxLevel
	if !(x >= 0 && x < 1 && y >= 0 && y < 1 && z >= 0 && z < 1) {
		return 0, ErrOutOfDomain
	}
	return morton.Encode(uint32(x*n), uint32(y*n), uint32(z*n), morton.MaxLevel), nil
}

// leafAt returns the index of the leaf whose span contains key k, by
// binary search over the Z-ordered keys. Disjoint leaves have disjoint,
// ordered key spans, so the last leaf with key <= k is the container.
func (v *version) leafAt(k uint64) (int, error) {
	i := sort.Search(len(v.keys), func(i int) bool { return v.keys[i] > k }) - 1
	if i < 0 {
		return 0, fmt.Errorf("serve: key %d precedes the first leaf", k)
	}
	lo, hi := v.leaves[i].Code.KeySpan()
	if k < lo || k > hi {
		return 0, fmt.Errorf("serve: key %d falls between leaves; version index is inconsistent", k)
	}
	return i, nil
}

// PointResult is the leaf answering a point lookup.
type PointResult struct {
	Step  uint64
	Code  morton.Code
	Data  [core.DataWords]float64
	Depth uint8 // the leaf's refinement level
}

// Point returns the deepest leaf containing (x, y, z). The modeled cost —
// charged against the pinned device — is the root-to-leaf descent the
// index replaces.
func (s *Snapshot) Point(x, y, z float64) (PointResult, error) {
	return s.PointTraced(nil, x, y, z)
}

// PointTraced is Point with per-phase trace spans: index_build (when this
// request pays for the lazy index), leaf_scan (the binary search), and
// device_read (zero wall time, carrying the modeled descent cost). A nil
// tc means untraced.
func (s *Snapshot) PointTraced(tc *telemetry.TraceContext, x, y, z float64) (PointResult, error) {
	cell, err := cellAt(x, y, z)
	if err != nil {
		return PointResult{}, err
	}
	tc.SetStep(s.Step())
	s.v.ensureTraced(tc)
	scan := tc.StartSpan("leaf_scan")
	i, err := s.v.leafAt(cell.Key())
	scan.End()
	if err != nil {
		return PointResult{}, err
	}
	leaf := s.v.leaves[i]
	dr := tc.StartSpan("device_read")
	modeled := s.v.pin.ChargeReadsModeled(int(leaf.Code.Level())+1, core.RecordSize)
	dr.AddModeled(modeled)
	dr.End()
	return PointResult{
		Step:  s.Step(),
		Code:  leaf.Code,
		Data:  leaf.Data,
		Depth: leaf.Code.Level(),
	}, nil
}

// Box is an axis-aligned region, half-open: [Min, Max) in each dimension,
// within the unit cube.
type Box struct {
	Min [3]float64
	Max [3]float64
}

// KeyRange is an inclusive span of Z-order keys (morton.Code.Key values).
// The zero value means the full key space. A sharded deployment assigns
// each shard a disjoint range; region and aggregate queries filtered by
// range return only leaves the shard is responsible for, so a router can
// scatter one query across the ranges and merge exact, non-overlapping
// results.
type KeyRange struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// FullKeyRange spans every key.
func FullKeyRange() KeyRange { return KeyRange{Lo: 0, Hi: math.MaxUint64} }

// IsFull reports whether the range is unrestricted (the zero value and
// the explicit full range both qualify).
func (kr KeyRange) IsFull() bool {
	return kr.Lo == 0 && (kr.Hi == 0 || kr.Hi == math.MaxUint64)
}

// Contains reports whether key k lies in the range.
func (kr KeyRange) Contains(k uint64) bool {
	return kr.IsFull() || (k >= kr.Lo && k <= kr.Hi)
}

// Intersect returns the overlap of two ranges. An empty intersection is
// returned as {1, 0} (Lo > Hi), which Contains rejects for every key.
func (kr KeyRange) Intersect(o KeyRange) KeyRange {
	a, b := kr.normalized(), o.normalized()
	if a.Lo < b.Lo {
		a.Lo = b.Lo
	}
	if a.Hi > b.Hi {
		a.Hi = b.Hi
	}
	if a.Lo > a.Hi {
		return KeyRange{Lo: 1, Hi: 0}
	}
	return a
}

func (kr KeyRange) normalized() KeyRange {
	if kr.IsFull() {
		return FullKeyRange()
	}
	return kr
}

// LeafHit is one leaf intersecting a region query.
type LeafHit struct {
	Code morton.Code
	Data [core.DataWords]float64
}

// regionWindow computes the contiguous Z-order leaf window that can
// intersect box, returning [first, last] leaf indexes (inclusive) plus
// the descent charge, or ok=false when the box is invalid.
func (v *version) regionWindow(box Box) (first, last int, charge int, err error) {
	for d := 0; d < 3; d++ {
		if !(box.Min[d] < box.Max[d]) || box.Min[d] < 0 || box.Max[d] > 1 {
			return 0, 0, 0, ErrBadRegion
		}
	}
	const n = 1 << morton.MaxLevel
	var loIdx, hiIdx [3]uint32
	for d := 0; d < 3; d++ {
		loIdx[d] = uint32(box.Min[d] * n)
		// Last cell strictly inside the half-open box.
		h := uint32(math.Ceil(box.Max[d]*n)) - 1
		if h > n-1 {
			h = n - 1
		}
		hiIdx[d] = h
	}
	loCell := morton.Encode(loIdx[0], loIdx[1], loIdx[2], morton.MaxLevel)
	hiCell := morton.Encode(hiIdx[0], hiIdx[1], hiIdx[2], morton.MaxLevel)
	// Smallest common ancestor of the box's corner cells: its key span
	// bounds every cell in the box.
	a, b := loCell, hiCell
	for a != b {
		a, b = a.Parent(), b.Parent()
	}
	// The leaf containing the box's min corner may be a strict ancestor
	// of the common ancestor: then the whole box lies inside that one
	// leaf.
	i, err := v.leafAt(loCell.Key())
	if err != nil {
		return 0, 0, 0, err
	}
	if v.leaves[i].Code.Level() < a.Level() {
		return i, i, int(v.leaves[i].Code.Level()) + 1, nil
	}
	lo, hi := a.KeySpan()
	first = sort.Search(len(v.keys), func(i int) bool { return v.keys[i] >= lo })
	last = sort.Search(len(v.keys), func(i int) bool { return v.keys[i] > hi }) - 1
	// Modeled cost: descend to the common ancestor, then walk the pruned
	// subtree window.
	charge = int(a.Level()) + 1 + (last - first + 1)
	return first, last, charge, nil
}

// overlaps reports whether the leaf's half-open cube intersects box.
func overlaps(code morton.Code, box Box) bool {
	x, y, z := code.Center()
	ext := code.Extent()
	min := [3]float64{x - ext/2, y - ext/2, z - ext/2}
	for d := 0; d < 3; d++ {
		if min[d] >= box.Max[d] || box.Min[d] >= min[d]+ext {
			return false
		}
	}
	return true
}

// Region returns every leaf intersecting box, in Z-order.
func (s *Snapshot) Region(box Box) ([]LeafHit, error) {
	return s.RegionInTraced(nil, box, KeyRange{})
}

// RegionIn is Region restricted to leaves whose Z-order key falls in kr —
// the shard-responsibility filter.
func (s *Snapshot) RegionIn(box Box, kr KeyRange) ([]LeafHit, error) {
	return s.RegionInTraced(nil, box, kr)
}

// RegionTraced is Region with per-phase trace spans.
func (s *Snapshot) RegionTraced(tc *telemetry.TraceContext, box Box) ([]LeafHit, error) {
	return s.RegionInTraced(tc, box, KeyRange{})
}

// RegionInTraced is RegionIn with per-phase trace spans.
func (s *Snapshot) RegionInTraced(tc *telemetry.TraceContext, box Box, kr KeyRange) ([]LeafHit, error) {
	tc.SetStep(s.Step())
	s.v.ensureTraced(tc)
	scan := tc.StartSpan("leaf_scan")
	first, last, charge, err := s.v.regionWindow(box)
	if err != nil {
		scan.End()
		return nil, err
	}
	var hits []LeafHit
	for i := first; i <= last; i++ {
		if !kr.Contains(s.v.leaves[i].Code.Key()) {
			continue
		}
		if overlaps(s.v.leaves[i].Code, box) {
			hits = append(hits, LeafHit{Code: s.v.leaves[i].Code, Data: s.v.leaves[i].Data})
		}
	}
	scan.End()
	dr := tc.StartSpan("device_read")
	dr.AddModeled(s.v.pin.ChargeReadsModeled(charge, core.RecordSize))
	dr.End()
	return hits, nil
}

// AggResult summarizes one data field over the leaves intersecting a
// region.
type AggResult struct {
	Step   uint64
	Count  int     // leaves intersecting the region
	Sum    float64 // plain sum of the field over those leaves
	Min    float64
	Max    float64
	VolSum float64 // field weighted by each leaf's cell volume
}

// Aggregate folds data field `field` over every leaf intersecting box.
func (s *Snapshot) Aggregate(field int, box Box) (AggResult, error) {
	return s.AggregateInTraced(nil, field, box, KeyRange{})
}

// AggregateIn is Aggregate restricted to leaves whose Z-order key falls
// in kr. Partial aggregates over disjoint ranges merge exactly: counts
// and sums add, mins and maxes combine.
func (s *Snapshot) AggregateIn(field int, box Box, kr KeyRange) (AggResult, error) {
	return s.AggregateInTraced(nil, field, box, kr)
}

// AggregateTraced is Aggregate with per-phase trace spans.
func (s *Snapshot) AggregateTraced(tc *telemetry.TraceContext, field int, box Box) (AggResult, error) {
	return s.AggregateInTraced(tc, field, box, KeyRange{})
}

// AggregateInTraced is AggregateIn with per-phase trace spans.
func (s *Snapshot) AggregateInTraced(tc *telemetry.TraceContext, field int, box Box, kr KeyRange) (AggResult, error) {
	if field < 0 || field >= core.DataWords {
		return AggResult{}, ErrBadField
	}
	tc.SetStep(s.Step())
	s.v.ensureTraced(tc)
	scan := tc.StartSpan("leaf_scan")
	first, last, charge, err := s.v.regionWindow(box)
	if err != nil {
		scan.End()
		return AggResult{}, err
	}
	res := AggResult{Step: s.Step(), Min: math.Inf(1), Max: math.Inf(-1)}
	for i := first; i <= last; i++ {
		leaf := s.v.leaves[i]
		if !kr.Contains(leaf.Code.Key()) {
			continue
		}
		if !overlaps(leaf.Code, box) {
			continue
		}
		val := leaf.Data[field]
		res.Count++
		res.Sum += val
		if val < res.Min {
			res.Min = val
		}
		if val > res.Max {
			res.Max = val
		}
		ext := leaf.Code.Extent()
		res.VolSum += val * ext * ext * ext
	}
	if res.Count == 0 {
		res.Min, res.Max = 0, 0
	}
	scan.End()
	dr := tc.StartSpan("device_read")
	dr.AddModeled(s.v.pin.ChargeReadsModeled(charge, core.RecordSize))
	dr.End()
	return res, nil
}
