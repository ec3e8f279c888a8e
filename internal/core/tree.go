package core

import (
	"math"
	"math/rand"
	"sync"

	"pmoctree/internal/bulk"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
	"pmoctree/internal/telemetry"
	"pmoctree/internal/tile"
)

// Feature is an application-level predicate used by feature-directed
// sampling (§3.3): it returns true when the octant's domain is of interest
// (e.g. its refinement condition holds). PM-octree pre-executes these on
// sampled octants to predict subtree access frequency. A feature sees the
// octant's code only: the samples are drawn from the leaf index, and an
// interior octant's payload is stale by construction.
type Feature func(code morton.Code) bool

// Config parameterizes a PM-octree.
type Config struct {
	// DRAMBudgetOctants is the C0 capacity in octants (the paper's
	// "DRAM size configured for the C0 tree"). Default 4096.
	DRAMBudgetOctants int
	// NVBMBudgetOctants, when nonzero, triggers on-demand GC when NVBM
	// utilization crosses ThresholdNVBM.
	NVBMBudgetOctants int
	// ThresholdDRAM is the C0 utilization high watermark above which the
	// least-frequently-accessed hot subtree is merged out to C1.
	// Default 0.9.
	ThresholdDRAM float64
	// ThresholdNVBM is the NVBM utilization high watermark for on-demand
	// GC. Default 0.9.
	ThresholdNVBM float64
	// TTransform is the access-frequency ratio above which a hot NVBM
	// subtree displaces a cold DRAM subtree (§3.3). Default 1.5.
	TTransform float64
	// NSample is the per-subtree sample budget; the paper uses
	// min(100, subtree size). Default 100.
	NSample int
	// DisableTransform turns off feature-directed layout transformation;
	// the hot set is then chosen obliviously in Z-order (Figure 5a).
	DisableTransform bool
	// WearLeveling selects next-fit slot allocation in the NVBM arena,
	// rotating writes across freed slots to extend device lifetime at a
	// small locality cost (extension; see pmbench endurance).
	WearLeveling bool
	// GCEvery runs the end-of-step collection only every k-th persist
	// (default 1: every step, as the paper prescribes). Larger values
	// effectively retain more superseded versions, trading memory for
	// fewer sweeps — the k-version retention ablation of DESIGN.md.
	GCEvery int
	// Seed drives the deterministic sampling RNG.
	Seed int64
	// VerifyRestore makes Restore deeply validate the newest committed
	// version (structure + media CRCs) before accepting it, instead of
	// only on fallback candidates. Off by default: the paper's restore is
	// O(1) and torture tests rely on that cost.
	VerifyRestore bool
	// RetainVersions, when k > 0, makes GC keep the k newest superseded
	// versions reachable, so restore can genuinely walk back to them after
	// media damage and snapshot servers can pin them. The fallback ring
	// holds at most MaxRetainVersions entries; asking for more is a
	// configuration error (RetainDepthError) — Create panics with it,
	// Restore returns it. Default 0: superseded versions are reclaimed as
	// the paper prescribes.
	RetainVersions int
	// PipelineDepth is ignored: Persist always commits inline.
	//
	// Deprecated: the persist worker it sized is gone. The field stays
	// only because benchmark/spec.go still sets it.
	PipelineDepth int
	// GroupCommit is ignored: every Persist makes its own commit.
	//
	// Deprecated: the persist worker it configured is gone. The field
	// stays only because benchmark/spec.go still sets it.
	GroupCommit int

	// NVBMDevice, when set, is the persistent region to use (e.g. one
	// reopened after a crash). Otherwise a fresh device is created.
	NVBMDevice *nvbm.Device
	// DRAMDevice, when set, backs the C0 arena. Otherwise created.
	DRAMDevice *nvbm.Device
}

// Validate reports configuration errors that defaulting cannot repair:
// RetainVersions deeper than the persistent fallback ring (which used to
// be silently clamped — a snapshot catalog sized to the request would
// then pin fewer versions than promised).
func (c Config) Validate() error {
	if c.RetainVersions > MaxRetainVersions {
		return &RetainDepthError{Requested: c.RetainVersions, Limit: MaxRetainVersions}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.DRAMBudgetOctants <= 0 {
		c.DRAMBudgetOctants = 4096
	}
	if c.ThresholdDRAM <= 0 {
		c.ThresholdDRAM = 0.9
	}
	if c.ThresholdNVBM <= 0 {
		c.ThresholdNVBM = 0.9
	}
	if c.TTransform <= 0 {
		c.TTransform = 1.5
	}
	if c.NSample <= 0 {
		c.NSample = 100
	}
	if c.GCEvery <= 0 {
		c.GCEvery = 1
	}
	if c.NVBMDevice == nil {
		c.NVBMDevice = nvbm.New(nvbm.NVBM, 0)
	}
	if c.DRAMDevice == nil {
		c.DRAMDevice = nvbm.New(nvbm.DRAM, 0)
	}
	return c
}

// Persistent root-table slots in the NVBM arena.
const (
	rootSlotAddr = 0 // ADDR of the committed version's root octant
	rootSlotStep = 1 // step number of the committed version
)

// Tree is a PM-octree. It is not safe for concurrent use; in the
// distributed simulation each rank owns one Tree.
type Tree struct {
	cfg  Config
	dram *pmem.Arena // C0: hot subtrees + trunk of the working version
	nv   *pmem.Arena // C1 + all committed octants

	committed     Ref    // root of V(i-1), always NVBM, never mutated
	cur           Ref    // root of V(i), the working version
	step          uint64 // working version number
	committedStep uint64 // version number of committed (indexes the fallback ring)

	// Layout state (§3.3).
	lsub     uint8                  // subtree level L_sub (Eq. 1)
	hot      map[morton.Code]bool   // hot subtree roots (C0 residents)
	trunk    map[morton.Code]bool   // ancestors of hot roots (nil until first retarget)
	access   map[morton.Code]uint64 // per-subtree access counts this step
	features []Feature
	rng      *rand.Rand // layout sampling; nil until random seeds it
	depth    uint8      // max leaf level observed

	// Layout-pass scratch (transform.go), reused between passes: the
	// candidate subtrees and their reservoir samples, one flat buffer.
	// walkOracle, when set, replaces the key-space replay (tests only).
	subtrees   []subtreeInfo
	samples    []morton.Code
	walkOracle func(*Tree) ([]subtreeInfo, uint8)

	// scratch is the shared encode buffer of the WRITE path (and of the
	// guarded raw reads in recovery/compaction). Mutating operations are
	// single-threaded by the Tree contract, so one buffer suffices; the
	// READ path (readOct, the committed walk) uses per-call buffers so
	// side-effect-free readers can run concurrently (see
	// ForEachCommittedNode).
	scratch [RecordSize]byte
	stats   OpStats
	tel     *telemetry.Tracer         // nil when telemetry is off
	flight  *telemetry.FlightRecorder // nil when the flight recorder is off

	// Leaf fast path (leafindex.go): the Z-order leaf index stamped with
	// contentSeq, and the fast-path counters. contentSeq counts the device
	// stores that change topology or payload, so moving an octant between
	// arenas leaves the index valid. lent is set while LeafTiles has the
	// index on loan to a kernel.
	contentSeq uint64
	idx        tile.Store
	lent       bool
	dirtyPos   []int32 // the batch writer's dirty index positions (scatter.go)
	fp         FastPathStats

	// commitSeq is contentSeq as of the last commit (Create, Persist, or
	// the version Restore chose): while the two are equal the working
	// version holds the committed version's leaves and payload, and
	// PinCommitted may hand a copy of a valid index to the pin (snapshot.go).
	// fillers is set while the working version may hold a filler leaf: by
	// ConstructWithFillers, and by a rebuild walk that meets an octant
	// flagged FlagFiller (a collapse turns a split filler back into a
	// filler leaf, so interior octants count). Only a construction that
	// replaces the whole version clears it.
	commitSeq uint64
	fillers   bool

	// leafCount is the working version's leaf count, 0 while unknown (a
	// restored tree before its first count or leaf-index build). Leaf
	// splits, sibling collapses and bulk construction keep it current, so
	// LeafCount costs no walk.
	leafCount int

	// balance is Balance's key-space closure with its scratch (balance.go);
	// changes (the splits or the merges) and refined (the leaves after the
	// splits) are RefineWhere's and CoarsenWhere's decisions (ops.go),
	// reused between calls.
	balance bulk.Closure
	changes []morton.Code
	refined []morton.Code

	// topoSeq counts topology changes: leaf splits, collapses and bulk
	// construction. seeds are the cells RefineWhere and CoarsenWhere split
	// or merged since the last Balance; they hold every such change while
	// seedSeq is topoSeq+1 (a new or restored tree's zero matches nothing),
	// and Balance then ripples from them alone (balance.go).
	topoSeq, seedSeq uint64
	seeds            []morton.Code

	// GC state (gc.go, ledger.go): the lifetime ledger, and the reusable
	// slot bitset and explicit stack of the full mark.
	led         ledger
	markBits    []uint64
	markScratch []Ref

	// c0 maps the key spans that hold a C0 octant, so the merge walks only
	// the paths to them (merge.go). mergeOracle, when set, replaces the
	// merge walk (tests only).
	c0          c0Spans
	mergeOracle func(*Tree, Ref) Ref

	// hook is the persist hook (commit.go), nil when none is set.
	hook func(stage string)

	// Snapshot pin registry (snapshot.go): committed versions held alive
	// for concurrent readers. pinMu orders reader Releases against the
	// writer's pin/GC/Compact passes; everything else on the Tree stays
	// single-threaded by contract.
	pinMu sync.Mutex
	pins  map[*VersionPin]struct{}

	// peakDRAMUtil tracks the highest C0 utilization seen during the
	// current step; lastPeakDRAMUtil holds the previous step's peak
	// (Persist rolls it over). The budget auto-tuner reads the latter:
	// post-persist utilization is always ~0 because the merge drains C0.
	peakDRAMUtil     float64
	lastPeakDRAMUtil float64
}

// OpStats counts structural operations on the tree.
type OpStats struct {
	Refines    int // leaf splits
	Coarsens   int // sibling-group collapses
	Constructs int // bulk tree constructions from Morton codes
	Copies     int // COW octant copies
	Merges     int // C0 subtree evictions to C1
	Persists   int // committed versions
	GCs        int // collection passes
	GCFreed    int // octants reclaimed
	Transforms int // subtree swaps by dynamic transformation
	Deferred   int // NVBM octants awaiting GC (deferred deletion)
}

// Create builds a new PM-octree holding one root octant, commits it as the
// first persistent version, and returns the tree (pm_create, Table 1).
// Create panics on an invalid Config (see Config.Validate); use Validate
// first when the configuration is not statically known.
func Create(cfg Config) *Tree {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	t := &Tree{
		cfg:    cfg,
		dram:   pmem.NewArena(cfg.DRAMDevice, RecordSize),
		nv:     pmem.NewArena(cfg.NVBMDevice, RecordSize),
		step:   1,
		hot:    map[morton.Code]bool{},
		access: map[morton.Code]uint64{},
		lsub:   1,
	}
	// The index of a one-leaf tree is known without a walk.
	t.idx.Append(morton.Root, [DataWords]float64{})
	t.endIndexEmit()
	t.dram.SetBudget(cfg.DRAMBudgetOctants)
	if cfg.NVBMBudgetOctants > 0 {
		t.nv.SetBudget(cfg.NVBMBudgetOctants)
	}
	t.nv.SetWearLeveling(cfg.WearLeveling)
	root := Octant{Code: morton.Root, Version: 0}
	r := t.allocIn(false)
	t.writeOct(r, &root)
	t.led = newLedger("", r, 0)
	t.led.birth(r.Handle(), 0) // committed as version 0
	landBits(t.nv)
	t.nv.SetRoot(rootSlotAddr, uint64(r))
	t.nv.SetRoot(rootSlotStep, 0)
	t.committed = r
	t.cur = r
	return t
}

// random returns the layout pass's sampling source, seeded from
// Config.Seed on first use, so a restored tree that only serves reads
// never pays for seeding one.
func (t *Tree) random() *rand.Rand {
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.cfg.Seed + 1))
	}
	return t.rng
}

// Restore reopens a PM-octree from an NVBM device that survived a crash or
// restart (pm_restore, Table 1). The working version is reset to the last
// committed version; octants reachable only from a lost working version
// are reclaimed by the next GC pass, not here — restoring is
// near-instantaneous because no octant data moves. When the committed
// version is damaged, recovery walks back through the persistent fallback
// ring to the newest intact version (see RestoreWithReport).
func Restore(cfg Config) (*Tree, error) {
	t, _, err := RestoreWithReport(cfg)
	return t, err
}

// Delete drops all octants in both regions (pm_delete, Table 1). The
// tree is unusable afterwards; create a fresh one to continue. Deleting
// while snapshot pins are outstanding is a caller error: readers would
// observe reformatted slots (reads stay memory-safe, results become
// garbage).
func (t *Tree) Delete() {
	t.dram = pmem.NewArena(t.cfg.DRAMDevice, RecordSize)
	t.nv = pmem.NewArena(t.cfg.NVBMDevice, RecordSize)
	t.committed, t.cur = NilRef, NilRef
	t.led = newLedger("", NilRef, 0)
	t.c0.reset()
	t.hot = map[morton.Code]bool{}
	t.trunk = nil
	t.access = map[morton.Code]uint64{}
	t.depth = 0
	t.lsub = 1
	t.leafCount = 0
	t.lent = false
	t.idx.Invalidate()
}

// SetFeatures installs the application feature functions used by
// feature-directed sampling. Passing none disables sampling-based layout.
func (t *Tree) SetFeatures(fs ...Feature) { t.features = fs }

// Step returns the working version number.
func (t *Tree) Step() uint64 { return t.step }

// Root returns the working version's root ref.
func (t *Tree) Root() Ref { return t.cur }

// CommittedRoot returns the last committed version's root ref.
func (t *Tree) CommittedRoot() Ref { return t.committed }

// Stats returns operation counters.
func (t *Tree) Stats() OpStats { return t.stats }

// SetTracer attaches a telemetry tracer; every PM-octree routine
// (Refine/Coarsen/Balance/Solve/Persist/Merge/GC/Transform/Compact) then
// records a phase span tagged with the working version number. A nil
// tracer (the default) turns spans off.
func (t *Tree) SetTracer(tel *telemetry.Tracer) { t.tel = tel }

// Tracer returns the attached tracer (nil when telemetry is off),
// satisfying telemetry.Traceable so the step driver can tag spans.
func (t *Tree) Tracer() *telemetry.Tracer { return t.tel }

// SetFlightRecorder attaches a flight recorder; Persist and GC then
// record commit and gc events into it. A nil recorder (the default)
// turns recording off.
func (t *Tree) SetFlightRecorder(fr *telemetry.FlightRecorder) { t.flight = fr }

// FlightRecorder returns the attached flight recorder (nil when off).
func (t *Tree) FlightRecorder() *telemetry.FlightRecorder { return t.flight }

// span opens a phase span tagged with the working version; the usual call
// site is `defer t.span("Refine").End()`. Nil-safe end to end.
func (t *Tree) span(name string) *telemetry.Span {
	if t.tel == nil {
		return nil
	}
	t.tel.SetStep(t.step)
	return t.tel.Begin(name)
}

// RegisterMetrics publishes the tree's operation counters and both
// devices' access counters as function gauges under prefix.
func (t *Tree) RegisterMetrics(r *telemetry.Registry, prefix string) {
	if r == nil {
		return
	}
	r.RegisterFunc(prefix+".refines", func() float64 { return float64(t.stats.Refines) })
	r.RegisterFunc(prefix+".coarsens", func() float64 { return float64(t.stats.Coarsens) })
	r.RegisterFunc(prefix+".constructs", func() float64 { return float64(t.stats.Constructs) })
	r.RegisterFunc(prefix+".copies", func() float64 { return float64(t.stats.Copies) })
	r.RegisterFunc(prefix+".merges", func() float64 { return float64(t.stats.Merges) })
	r.RegisterFunc(prefix+".persists", func() float64 { return float64(t.stats.Persists) })
	r.RegisterFunc(prefix+".gcs", func() float64 { return float64(t.stats.GCs) })
	r.RegisterFunc(prefix+".gc_freed", func() float64 { return float64(t.stats.GCFreed) })
	r.RegisterFunc(prefix+".transforms", func() float64 { return float64(t.stats.Transforms) })
	r.RegisterFunc(prefix+".step", func() float64 { return float64(t.step) })
	// Fast-path counters live under fixed "core." names so dashboards
	// find them regardless of the caller's prefix.
	r.RegisterFunc("core.leafindex.rebuilds", func() float64 { return float64(t.fp.LeafIndexRebuilds) })
	r.RegisterFunc("core.leafindex.reuses", func() float64 { return float64(t.fp.LeafIndexReuses) })
	r.RegisterFunc("core.transform.index_rebuilds", func() float64 { return float64(t.fp.TransformIndexRebuilds) })
	r.RegisterFunc("core.tile.rebuilds", func() float64 { return float64(t.fp.TileRebuilds) })
	r.RegisterFunc("core.tile.reuses", func() float64 { return float64(t.fp.TileReuses) })
	r.RegisterFunc("core.tile.rebuild_ns", func() float64 { return float64(t.fp.TileRebuildNs) })
	r.RegisterFunc("core.tile.scatters", func() float64 { return float64(t.fp.TileScatters) })
	r.RegisterFunc("core.tile.scatter_bytes", func() float64 { return float64(t.fp.TileScatterBytes) })
	r.RegisterFunc("core.tile.occupancy", func() float64 {
		if !t.idx.ValidFor(t.contentSeq) || !t.idx.Tiled() {
			return 0 // gauge reads must not force a rebuild or a cut
		}
		return t.idx.Occupancy()
	})
	r.RegisterFunc("core.gc.full_collections", func() float64 { return float64(t.led.fulls) })
	r.RegisterFunc("core.gc.pending", func() float64 { return float64(t.led.held) })
	telemetry.RegisterDevice(r, prefix+".nvbm", t.cfg.NVBMDevice)
	telemetry.RegisterDevice(r, prefix+".dram", t.cfg.DRAMDevice)
}

// DRAMDevice returns the device backing C0.
func (t *Tree) DRAMDevice() *nvbm.Device { return t.cfg.DRAMDevice }

// NVBMDevice returns the persistent device.
func (t *Tree) NVBMDevice() *nvbm.Device { return t.cfg.NVBMDevice }

// SubtreeLevel returns the current L_sub (Eq. 1).
func (t *Tree) SubtreeLevel() uint8 { return t.lsub }

// HotSubtrees returns a copy of the hot subtree root set.
func (t *Tree) HotSubtrees() map[morton.Code]bool {
	out := make(map[morton.Code]bool, len(t.hot))
	for c := range t.hot {
		out[c] = true
	}
	return out
}

// --- low-level octant access ---

func (t *Tree) arenaFor(r Ref) *pmem.Arena {
	if r.InDRAM() {
		return t.dram
	}
	return t.nv
}

// readOct loads the octant at r and records a subtree access.
func (t *Tree) readOct(r Ref) Octant {
	var o Octant
	var buf [RecordSize]byte
	t.readInto(r, buf[:], &o)
	t.touch(o.Code)
	return o
}

// writeOct stores o at r; a C0 octant also marks its span for the merge.
func (t *Tree) writeOct(r Ref, o *Octant) {
	o.encode(t.scratch[:])
	t.arenaFor(r).Write(r.Handle(), t.scratch[:])
	if r.InDRAM() {
		t.c0.mark(o.Code)
	}
	t.touch(o.Code)
}

// writeChildren stores only the children field of o at r (a partial write,
// cheaper than rewriting the record).
func (t *Tree) writeChildren(r Ref, o *Octant) {
	var buf [32]byte
	for i := 0; i < 8; i++ {
		putU32(buf[4*i:], uint32(o.Children[i]))
	}
	t.arenaFor(r).WriteField(r.Handle(), offChildren, buf[:])
}

// writeDataField stores only the data array at r.
func (t *Tree) writeDataField(r Ref, o *Octant) {
	var buf [8 * DataWords]byte
	for i := 0; i < DataWords; i++ {
		putU64(buf[8*i:], f64bits(o.Data[i]))
	}
	t.arenaFor(r).WriteField(r.Handle(), offData, buf[:])
}

// writeFlagsField stores only the flags word at r.
func (t *Tree) writeFlagsField(r Ref, flags uint32) {
	var buf [4]byte
	putU32(buf[:], flags)
	t.arenaFor(r).WriteField(r.Handle(), offFlags, buf[:])
}

// allocIn allocates an octant slot in the chosen region. The slot is not
// zeroed: every caller immediately stores a full record into it.
func (t *Tree) allocIn(inDRAM bool) Ref {
	if inDRAM {
		r := makeRef(true, t.dram.AllocRaw())
		if u := t.dram.Utilization(); u > t.peakDRAMUtil {
			t.peakDRAMUtil = u
		}
		return r
	}
	h := t.nv.AllocRaw()
	t.led.birth(h, t.step)
	return makeRef(false, h)
}

// placeRegion decides where a new octant for code belongs: hot subtrees
// and the trunk above them go to DRAM (C0); everything else goes to NVBM
// (C1). Before the first layout pass (trunk == nil) all shallow octants
// bootstrap into DRAM. When the DRAM budget is exhausted, placement falls
// back to NVBM.
func (t *Tree) placeRegion(code morton.Code) bool {
	if t.dramFull() {
		return false
	}
	if code.Level() < t.lsub {
		if t.trunk == nil {
			return true
		}
		return t.hot[code] || t.trunk[code]
	}
	return t.hot[code.AncestorAt(t.lsub)]
}

// dramFull reports whether the C0 arena has reached its hard capacity.
// The watermark eviction of maybeEvict normally keeps utilization below
// this; the cap only bites when the budget is smaller than the trunk.
func (t *Tree) dramFull() bool {
	b := t.dram.Budget()
	return b > 0 && t.dram.LiveCount() >= b
}

// regionForCopy places a COW copy of an existing octant. It differs from
// placeRegion in one safety rule: an octant with DRAM-resident children
// must itself stay in DRAM, preserving the invariant that NVBM octants
// never reference DRAM octants (a crash must never leave the persistent
// graph pointing into lost memory).
func (t *Tree) regionForCopy(o *Octant) bool {
	for _, c := range o.Children {
		if c.InDRAM() {
			return true
		}
	}
	return t.placeRegion(o.Code)
}

// inPlace reports whether the octant at r may be mutated in place: DRAM
// octants always (C0 is never shared), NVBM octants only when created in
// the working version (V(i-1) cannot reference them).
func (t *Tree) inPlace(r Ref, o *Octant) bool {
	return r.InDRAM() || o.Version == t.step
}

// commitOctant stores the (modified) octant o, copying on write when r is
// shared with the committed version. It returns the ref now holding o;
// when that differs from r, the caller must splice it into the parent.
func (t *Tree) commitOctant(r Ref, o *Octant) Ref {
	if t.inPlace(r, o) {
		t.writeOct(r, o)
		return r
	}
	t.led.die(r.Handle(), o.Version, t.step)
	o.Version = t.step
	nr := t.allocIn(t.regionForCopy(o))
	t.writeOct(nr, o)
	t.stats.Copies++
	return nr
}

// discard unlinks the octant at r from the working version: DRAM octants
// are freed eagerly; working-version NVBM octants are marked deleted and
// left for GC (deferred deletion, §3.2); shared octants are untouched —
// they still belong to V(i-1). Either NVBM kind dies in the ledger now.
func (t *Tree) discard(r Ref, o *Octant) {
	if r.InDRAM() {
		t.dram.Free(r.Handle())
		return
	}
	if o.Version == t.step {
		t.writeFlagsField(r, o.Flags|FlagDeleted)
		t.stats.Deferred++
	}
	t.led.die(r.Handle(), o.Version, t.step)
}

// touch records an access to the subtree containing code for LFA eviction
// and access statistics.
func (t *Tree) touch(code morton.Code) {
	if code.Level() < t.lsub {
		if t.hot[code] {
			t.access[code]++
		}
		return
	}
	t.access[code.AncestorAt(t.lsub)]++
}

// --- little-endian helpers (avoiding binary import churn here) ---

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func f64bits(f float64) uint64 { return math.Float64bits(f) }
