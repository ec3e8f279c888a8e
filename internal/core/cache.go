package core

// Decoded-octant cache (the host-side half of the octant fast path).
//
// readOct pays for every octant touch twice: once on the modeled device
// (the charged arena read — the cost the paper measures) and once on the
// host (the 88-byte field-by-field decode). The decode is pure overhead
// of the reproduction, not of the modeled hardware, so Tree keeps a small
// direct-mapped cache of decoded octants keyed by Ref. A hit skips the
// decode but still performs the charged device read, so the modeled
// access statistics — and therefore the Fig 3/5/10 reproductions and the
// droplet golden step files — are bit-identical with the cache on.
//
// Coherence: writeOct/writeChildren/writeDataField write through (they
// hold the full record), writeParentField/writeFlagsField patch the
// cached line in place, frees drop the line, and whole-arena events
// (GC sweep, Persist, Compact, Delete) bump the cache epoch, which
// invalidates every line at once without touching the array.

// cacheBits sizes the direct-mapped decoded-octant cache: 2^cacheBits
// lines of one Octant each (~112 B/line, so the default is ~230 KiB of
// volatile host memory — far below the modeled C0 budget it shadows).
const cacheBits = 11

const cacheSlots = 1 << cacheBits

// cacheLine is one direct-mapped slot: a decoded octant, the ref it was
// decoded from, and the epoch it was filled in.
type cacheLine struct {
	ref   Ref
	epoch uint64
	oct   Octant
}

// FastPathStats counts decoded-cache and leaf-index activity. They are
// host-side observability counters, independent of the modeled devices.
type FastPathStats struct {
	CacheHits          uint64 // readOct served from a decoded line
	CacheMisses        uint64 // readOct decoded from the device
	CacheInvalidations uint64 // whole-cache epoch bumps
	LeafIndexRebuilds  uint64 // leaf-index rebuild walks
	LeafIndexReuses    uint64 // leaf index served without a walk
	TileRebuilds       uint64 // LeafTiles tile-bound cuts (the leaf set changed)
	TileReuses         uint64 // LeafTiles served without a cut
	TileRebuildNs      uint64 // wall time spent cutting tile bounds
	TileScatters       uint64 // ScatterLeafTiles calls
	TileScatterBytes   uint64 // field bytes written back to the tree
	// TransformIndexRebuilds counts layout passes that found the leaf index
	// invalid and re-derived its codes by an uncharged walk.
	TransformIndexRebuilds uint64
}

// FastPath returns the fast-path counters.
func (t *Tree) FastPath() FastPathStats { return t.fp }

// cacheSlotOf maps a ref to its direct-mapped line index. The multiplier
// is the 32-bit golden-ratio hash, spreading consecutive handles (and the
// DRAM bit) across the table.
func cacheSlotOf(r Ref) uint32 {
	return (uint32(r) * 0x9E3779B1) >> (32 - cacheBits)
}

// cacheLineOf returns the valid line holding r, or nil.
func (t *Tree) cacheLineOf(r Ref) *cacheLine {
	if t.cache == nil {
		return nil
	}
	line := &t.cache[cacheSlotOf(r)]
	if line.ref == r && line.epoch == t.cacheEpoch {
		return line
	}
	return nil
}

// cachePut stores a decoded octant for r, evicting whatever shared its
// line. The cache array is allocated on first use so every Tree
// construction path (Create, RestoreWithReport's literal) gets one.
func (t *Tree) cachePut(r Ref, o *Octant) {
	if t.cache == nil {
		t.cache = make([]cacheLine, cacheSlots)
		if t.cacheEpoch == 0 {
			t.cacheEpoch = 1 // zeroed lines must never look valid
		}
	}
	line := &t.cache[cacheSlotOf(r)]
	line.ref = r
	line.epoch = t.cacheEpoch
	line.oct = *o
}

// cacheDrop invalidates the line holding r, if any. Called when a slot is
// freed individually (DRAM frees are eager) so a recycled handle can never
// serve a stale decode.
func (t *Tree) cacheDrop(r Ref) {
	if line := t.cacheLineOf(r); line != nil {
		line.ref = NilRef
	}
}

// cacheInvalidateAll drops every line by bumping the epoch — the
// whole-arena invalidation used after GC sweeps (freed NVBM handles are
// recycled by later allocations), Persist, Compact and Delete.
func (t *Tree) cacheInvalidateAll() {
	t.cacheEpoch++
	t.fp.CacheInvalidations++
}
