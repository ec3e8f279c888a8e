package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/telemetry"
	"pmoctree/internal/tile"
)

// ErrOutOfDomain is returned for query coordinates outside the unit cube
// the octree discretizes.
var ErrOutOfDomain = fmt.Errorf("serve: coordinates outside the [0,1) domain")

// ErrBadRegion is returned for an empty or inverted region box.
var ErrBadRegion = fmt.Errorf("serve: region box is empty or inverted")

// ErrBadField is returned for an aggregation field outside the octant
// data words.
var ErrBadField = fmt.Errorf("serve: field index outside octant data")

// ErrNotHeld is returned when an answer would come from a filler leaf
// (core.FlagFiller): a materialized shard arena holds only its own key
// span and completes its octree with zero-payload fillers, which are not
// data of the mesh and must never be served as if they were.
var ErrNotHeld = fmt.Errorf("serve: answer lies outside the data this arena holds")

// version is the shared state of one pinned committed version. All
// Snapshot handles on the same version share it.
type version struct {
	pin *core.VersionPin

	// The Morton leaf index: the version's leaves in Z-order with their
	// payload, the same tile.Store the writer keeps as its own index. A
	// version the writer published right after its commit arrives with a
	// copy of the writer's index (core.VersionPin.Leaves) and is built
	// from the start. Any other version is read in place until a query
	// needs the index: a point descends the pinned tree, and the first
	// region, aggregate or LeafCount builds it with one charged walk.
	// Once built, leaf data is embedded, so the query hot path never
	// touches the arena again. The build runs under mu rather than
	// sync.Once: a build aborted by a fault-injection panic (chaos soak
	// cuts power under readers) must stay unbuilt and be retried, not be
	// poisoned empty. built is atomic so a descent never takes mu.
	mu      sync.Mutex
	built   atomic.Bool
	leaves  tile.Store
	fillers []int // ascending positions in leaves of filler leaves
}

// newVersion wraps a fresh pin, installing the leaf index it carries.
// A carried index holds no filler: core shares none from a tree that may
// hold one.
func newVersion(pin *core.VersionPin) *version {
	v := &version{pin: pin}
	if st := pin.Leaves(); st != nil {
		v.leaves = *st
		v.built.Store(true)
	}
	return v
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
	return s.v.leaves.N()
}

// ensure builds the Morton leaf index unless the version has one,
// reporting whether this call did the build — the caller that pays the
// build records it as an index_build trace span; everyone else rides the
// existing index.
func (v *version) ensure() bool {
	if v.built.Load() {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.built.Load() {
		return false
	}
	var leaves tile.Store
	var fillers []int
	v.pin.ForEachNode(func(_ core.Ref, o *core.Octant) bool {
		if o.IsLeaf() {
			if o.Filler() {
				fillers = append(fillers, leaves.N())
			}
			leaves.Append(o.Code, o.Data)
		}
		return true
	})
	v.leaves, v.fillers = leaves, fillers
	v.built.Store(true)
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

// CellAt maps a point to its MaxLevel cell code. The domain is the unit
// cube; coordinates must lie in [0, 1).
func CellAt(p [3]float64) (morton.Code, error) {
	if cell, ok := morton.CellOf(p[0], p[1], p[2]); ok {
		return cell, nil
	}
	return 0, ErrOutOfDomain
}

// leafAt returns the index of the leaf that holds cell.
func (v *version) leafAt(cell morton.Code) (int, error) {
	i, ok := morton.Container(v.leaves.Codes(), cell)
	if i < 0 {
		return 0, fmt.Errorf("serve: cell %v precedes the first leaf", cell)
	}
	if !ok {
		return 0, fmt.Errorf("serve: cell %v falls between leaves; version index is inconsistent", cell)
	}
	return i, nil
}

// Box is an axis-aligned region, half-open: [Min, Max) in each dimension,
// within the unit cube.
type Box struct {
	Min [3]float64
	Max [3]float64
}

// Cover validates the box and returns the MaxLevel cells it covers, as
// inclusive bounds per axis: lo holds the min corner, hi the last cell
// strictly inside the half-open box. morton.Cover(lo, hi) is the smallest
// octant containing the whole box.
func (b Box) Cover() (lo, hi [3]uint32, err error) {
	for d := 0; d < 3; d++ {
		if !(b.Min[d] < b.Max[d]) || b.Min[d] < 0 || b.Max[d] > 1 {
			return lo, hi, ErrBadRegion
		}
	}
	const n = 1 << morton.MaxLevel
	for d := 0; d < 3; d++ {
		lo[d] = uint32(b.Min[d] * n)
		hi[d] = min(uint32(math.Ceil(b.Max[d]*n))-1, n-1)
	}
	return lo, hi, nil
}

// KeyRange is an inclusive span of Z-order keys (morton.Code.Key values).
// A sharded deployment assigns each shard a disjoint range; region and
// aggregate queries filtered by range return only leaves the shard is
// responsible for, so a router can scatter one query across the ranges
// and merge exact, non-overlapping results. FullKeyRange() is the only
// unfiltered value: the zero value is the single key 0.
type KeyRange struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// FullKeyRange spans every key.
func FullKeyRange() KeyRange { return KeyRange{Lo: 0, Hi: math.MaxUint64} }

// IsFull reports whether the range spans every key.
func (kr KeyRange) IsFull() bool { return kr == FullKeyRange() }

// Contains reports whether key k lies in the range.
func (kr KeyRange) Contains(k uint64) bool { return k >= kr.Lo && k <= kr.Hi }

// Intersect returns the keys in both ranges, and false when there are none.
func (kr KeyRange) Intersect(o KeyRange) (KeyRange, bool) {
	out := KeyRange{Lo: max(kr.Lo, o.Lo), Hi: min(kr.Hi, o.Hi)}
	return out, out.Lo <= out.Hi
}

// LeafHit is one leaf answering a query.
type LeafHit struct {
	Code morton.Code
	Data [core.DataWords]float64
}

// AggResult summarizes one data field over the leaves intersecting a
// region.
type AggResult struct {
	Count  int     // leaves intersecting the region
	Sum    float64 // plain sum of the field over those leaves
	Min    float64
	Max    float64
	VolSum float64 // field weighted by each leaf's cell volume
}

// Merge folds b, an aggregate over a key range disjoint from a's, into a:
// counts and sums add, extrema combine, and an empty b changes nothing.
func (a *AggResult) Merge(b AggResult) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 || b.Min < a.Min {
		a.Min = b.Min
	}
	if a.Count == 0 || b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
	a.Sum += b.Sum
	a.VolSum += b.VolSum
}

// Class is a query class. Its name is the endpoint (/v1/<name>), the
// scheduler class and the trace kind of the query.
type Class uint8

const (
	ClassPoint  Class = iota // the leaf containing a point
	ClassRegion              // every leaf intersecting a box
	ClassAgg                 // one data field folded over a box
)

var classNames = [...]string{"point", "region", "agg"}

func (c Class) String() string { return classNames[c] }

// Query is one question to a committed version. The same value travels
// unchanged from an HTTP request through the router and any Backend to
// Snapshot.Query.
type Query struct {
	Class Class
	Point [3]float64 // ClassPoint
	Box   Box        // ClassRegion, ClassAgg
	Field int        // ClassAgg: the data word folded
	Span  KeyRange   // ClassRegion, ClassAgg: only leaves whose key lies here
}

// errInvertedSpan rejects a key filter whose low bound exceeds its high.
const errInvertedSpan ParamError = "klo must not exceed khi"

// Check rejects an aggregation over a field outside the octant data words
// and an inverted key filter: the checks of a Query that need no committed
// version. The request parser, the router and Snapshot.Query all run it.
func (q Query) Check() error {
	if q.Class == ClassAgg && (q.Field < 0 || q.Field >= core.DataWords) {
		return ErrBadField
	}
	if q.Class != ClassPoint && q.Span.Lo > q.Span.Hi {
		return errInvertedSpan
	}
	return nil
}

// Result answers a Query at the snapshot's step.
type Result struct {
	Step uint64
	Leaf LeafHit   // ClassPoint: the deepest leaf containing the point
	Hits []LeafHit // ClassRegion: the leaves intersecting the box, Z-ordered
	Agg  AggResult // ClassAgg
}

// Query answers q with per-phase trace spans on tc (nil means untraced):
// index_build when this call pays for the index, leaf_scan for the tree
// descent, binary search or window scan, and device_read, which takes no
// wall time and carries the modeled cost of the octant reads the answer
// stands for, charged against the pinned device. A point on a version
// without an index descends the pinned tree (descend) and builds nothing;
// every other query builds the index first.
func (s *Snapshot) Query(tc *telemetry.TraceContext, q Query) (Result, error) {
	if err := q.Check(); err != nil {
		return Result{}, err
	}
	var cell morton.Code
	if q.Class == ClassPoint {
		var err error
		if cell, err = CellAt(q.Point); err != nil {
			return Result{}, err
		}
	}
	res := Result{Step: s.Step()}
	tc.SetStep(res.Step)
	if q.Class == ClassPoint && !s.v.built.Load() {
		scan := tc.StartSpan("leaf_scan")
		reads, ok, err := s.v.descend(cell, &res)
		scan.End()
		if ok {
			dr := tc.StartSpan("device_read")
			dr.AddModeled(s.v.pin.ReadsModeled(reads, core.RecordSize))
			dr.End()
			if err != nil {
				return Result{}, err
			}
			return res, nil
		}
		// The descent ended on an interior octant: the version is
		// malformed, and the index path names the fault.
	}
	s.v.ensureTraced(tc)
	scan := tc.StartSpan("leaf_scan")
	charge, err := s.v.scan(q, cell, &res)
	scan.End()
	if err != nil && !errors.Is(err, ErrNotHeld) {
		return Result{}, err
	}
	dr := tc.StartSpan("device_read")
	dr.AddModeled(s.v.pin.ChargeReadsModeled(charge, core.RecordSize))
	dr.End()
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// descend answers a point by descending the pinned tree to the leaf
// holding cell, which charges its level+1 octant reads to the device —
// the count the index path charges for the same answer. It returns those
// reads, and ok false when the descent ended on an interior octant
// (nothing answered). A filler leaf is refused with ErrNotHeld after the
// same reads, as by the index path.
func (v *version) descend(cell morton.Code, res *Result) (reads int, ok bool, err error) {
	_, o := v.pin.FindLeaf(cell)
	if !o.IsLeaf() {
		return 0, false, nil
	}
	if o.Filler() {
		return int(o.Code.Level()) + 1, true, ErrNotHeld
	}
	res.Leaf = LeafHit{Code: o.Code, Data: o.Data}
	return int(o.Code.Level()) + 1, true, nil
}

// scan answers q from the leaf index into res and returns the number of
// octant reads a tree descent would have made: root to leaf for a point;
// for a region or aggregate, the interior octants the box walk descends
// through (tile.Store.BoxRuns) plus each leaf it returns. An answer that
// would include a filler leaf is refused with ErrNotHeld; a refused point
// still returns its level+1 reads, which the descent makes before it
// meets the filler, so a shard's device counts do not depend on whether
// its index is built.
func (v *version) scan(q Query, cell morton.Code, res *Result) (int, error) {
	codes := v.leaves.Codes()
	if q.Class == ClassPoint {
		i, err := v.leafAt(cell)
		if err != nil {
			return 0, err
		}
		reads := int(codes[i].Level()) + 1
		if k := sort.SearchInts(v.fillers, i); k < len(v.fillers) && v.fillers[k] == i {
			return reads, ErrNotHeld
		}
		res.Leaf = LeafHit{Code: codes[i], Data: v.leaves.Load(i)}
		return reads, nil
	}
	lo, hi, err := q.Box.Cover()
	if err != nil {
		return 0, err
	}
	agg := &res.Agg
	var field []float64
	if q.Class == ClassAgg {
		agg.Min, agg.Max = math.Inf(1), math.Inf(-1)
		field = v.leaves.F[q.Field]
	}
	leaves, held := 0, true
	// Runs arrive in ascending position order, so hits and every partial
	// sum fold in Z-order.
	reads := v.leaves.BoxRuns(lo, hi, q.Span.Lo, q.Span.Hi, func(first, last int) {
		if k := sort.SearchInts(v.fillers, first); k < len(v.fillers) && v.fillers[k] <= last {
			held = false
		}
		if !held {
			return
		}
		leaves += last - first + 1
		for i := first; i <= last; i++ {
			if q.Class == ClassRegion {
				res.Hits = append(res.Hits, LeafHit{Code: codes[i], Data: v.leaves.Load(i)})
				continue
			}
			val := field[i]
			agg.Count++
			agg.Sum += val
			if val < agg.Min {
				agg.Min = val
			}
			if val > agg.Max {
				agg.Max = val
			}
			ext := codes[i].Extent()
			agg.VolSum += val * ext * ext * ext
		}
	})
	if !held {
		return 0, ErrNotHeld
	}
	if q.Class == ClassAgg && agg.Count == 0 {
		agg.Min, agg.Max = 0, 0
	}
	return reads + leaves, nil
}

// Point returns the deepest leaf containing (x, y, z).
func (s *Snapshot) Point(x, y, z float64) (LeafHit, error) {
	r, err := s.Query(nil, Query{Class: ClassPoint, Point: [3]float64{x, y, z}})
	return r.Leaf, err
}

// Region returns every leaf intersecting box, in Z-order.
func (s *Snapshot) Region(box Box) ([]LeafHit, error) {
	r, err := s.Query(nil, Query{Class: ClassRegion, Box: box, Span: FullKeyRange()})
	return r.Hits, err
}

// Aggregate folds data field `field` over every leaf intersecting box.
func (s *Snapshot) Aggregate(field int, box Box) (AggResult, error) {
	r, err := s.Query(nil, Query{Class: ClassAgg, Box: box, Field: field, Span: FullKeyRange()})
	return r.Agg, err
}
