// Package pmem provides a persistent, handle-addressed slot allocator on top
// of an emulated memory device (internal/nvbm).
//
// A garbage-collected runtime such as Go cannot store raw pointers inside a
// persistent memory region: the collector owns pointer identity, may move
// its view of liveness at any time, and never scans foreign memory. The
// PM-octree reproduction therefore follows the layout discipline of
// PMDK-style persistent libraries: objects in a region reference each other
// by region-relative handles, never by virtual addresses. Handles remain
// valid across process restarts and file-backed remaps, which is exactly
// the property persistent pointers give C++ and the property Go pointers
// cannot.
//
// An Arena manages fixed-size slots inside one device. Slot liveness is
// recorded in a persistent allocation bitmap, so a crashed process rebuilds
// its volatile allocation state from one small sequential read (and lists
// its free slots only when it first allocates or frees) — the allocator is
// crash-consistent without a log, and recovery cost is metadata-sized, not
// data-sized. Allocations and frees change only a volatile mirror of the
// bitmap; the caller lands the words they dirtied, and the high-water
// mark, once per commit (TakeDirtyBits, then WriteBitsExclusive) before the
// store that makes the new slots reachable. A crash therefore loses exactly
// the allocation state changed since the last landing: a lost allocation
// is a slot no durable root references, and a lost free is a leak the
// octree's mark-and-sweep GC reclaims. Landings and root stores are read
// back, so one that a worn-out line dropped panics (ErrStoreLost) instead
// of going unnoticed.
package pmem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"sync/atomic"

	"pmoctree/internal/nvbm"
)

// Handle identifies an allocated slot within one Arena. Handles are
// 1-based; the zero Handle is the nil reference.
type Handle uint32

// Nil is the null handle.
const Nil Handle = 0

// IsNil reports whether h is the null handle.
func (h Handle) IsNil() bool { return h == Nil }

const (
	// headerSize is the formatted arena header: magic, geometry, and the
	// persistent root table.
	headerSize = 128
	// rootTableOff is where the 8 persistent roots live in the header.
	rootTableOff = 64
	// NumRoots is the number of persistent root slots an arena exposes.
	// PM-octree uses two of them for ADDR(Vi) and ADDR(Vi-1).
	NumRoots = 8

	magicOff     = 0
	slotSizeOff  = 8
	strideOff    = 12
	highWaterOff = 16
	maxSlotsOff  = 20
	geomSumOff   = 24

	// DefaultMaxSlots bounds an arena created by NewArena: 2^21 slots
	// (an allocation bitmap of 256 KiB).
	DefaultMaxSlots = 1 << 21
)

// arenaMagic names the arena format. Format 4 stores morton codes in
// curve order; an older image's code words would decode as other
// octants, so OpenArena refuses any other magic.
var arenaMagic = [8]byte{'P', 'M', 'A', 'R', 'E', 'N', 'A', '4'}

// ErrBadMagic reports a device whose header does not carry this format's
// arena magic: not an arena, or one written in an older format.
var ErrBadMagic = errors.New("pmem: bad arena magic")

// ErrStoreLost reports a root word or a bitmap landing that did not reach
// the media: the line it targets has worn out and drops stores (nvbm's
// wear limit). These are the stores a restore trusts without a way to
// check them — a lost landing lets a reopened allocator hand out a slot a
// durable version holds, a lost root word names a version the tree has
// moved past — so SetRoot and WriteBitsExclusive read each one back and
// panic with ErrStoreLost on a mismatch, failing the commit like a power
// cut at that store.
var ErrStoreLost = errors.New("pmem: a root or allocation-bitmap store did not reach the media")

// geometrySum checksums the format-time geometry words. Nothing else in the
// header is redundant with them, so without it a flipped capacity byte
// moves every slot offset silently. The high-water mark is left out: it is
// rewritten at every landing, and covering it would add a checksum store
// to each.
func geometrySum(slotSize, stride, maxSlots int) uint64 {
	h := fnv.New64a()
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(slotSize))
	binary.LittleEndian.PutUint32(b[4:], uint32(stride))
	binary.LittleEndian.PutUint32(b[8:], uint32(maxSlots))
	h.Write(b[:])
	return h.Sum64()
}

// Arena is a fixed-slot allocator over a Device. It is not safe for
// general concurrent use; each simulation rank owns its arenas. One
// exception is carved out, MVCC serving: Read/ReadField/Live/HighWater on
// slots that are never freed or rewritten (committed, pinned octree
// versions) may run concurrently with the single writer's AllocRaw/Write
// on OTHER slots — the high-water mark is atomic and the device tolerates
// disjoint-range access racing Grow. All volatile allocation bookkeeping
// (free list, liveWords mirror, dirty set, zeroBuf) belongs to the writer.
type Arena struct {
	dev      *nvbm.Device
	slotSize int // user-visible bytes per slot
	stride   int // allocated bytes per slot (8-aligned)
	maxSlots int

	// highWater counts slots ever handed out (contiguous from 0). It is
	// atomic — not because the arena is concurrent (it is single-writer by
	// contract) but because pinned-snapshot readers call Read on committed
	// slots while the writer allocates, and both paths consult the mark.
	highWater atomic.Uint32
	free      []uint32 // volatile free list of 0-based slot indexes
	live      int      // currently allocated slots
	// unlisted is set by OpenArena: free does not hold the mirror's free
	// slots yet. The first AllocRaw, Free or FreeSet lists them (listFree),
	// so a reopened arena that only serves reads never builds the list.
	unlisted bool

	// budget, when nonzero, is the slot capacity used for utilization
	// tracking (threshold_DRAM / threshold_NVBM in the paper). The arena
	// itself never refuses an allocation; policy lives in the caller.
	budget int

	// wearLevel switches free-slot recycling from LIFO (cache-friendly:
	// the hottest slot is reused immediately) to FIFO (wear-friendly:
	// writes rotate across every freed slot). NVBM cells endure a
	// bounded number of writes, so long-running write-heavy workloads
	// trade a little locality for device lifetime.
	wearLevel bool
	fifoHead  int // consumed prefix of the free list in FIFO mode

	// liveWords is the allocation bitmap's truth (64 slots per word): the
	// persistent copy trails it until the caller lands the dirty words.
	// GC sweeps scan it word by word instead of probing the device per
	// handle.
	liveWords []uint64
	// dirty has one bit per liveWords index, set when the word changes and
	// cleared by TakeDirtyBits, which therefore emits words in ascending
	// order. It is bounded by the capacity (512 words at DefaultMaxSlots),
	// so an arena that is never landed — the DRAM region C0 — keeps it
	// small.
	dirty []uint64

	// zeroBuf is the reusable zeroing buffer for Alloc. It is only ever
	// passed to dev.WriteAt, which copies it, so it stays all-zero. It is
	// built eagerly at construction: a lazy first-Alloc initialization
	// would be an unsynchronized field store racing any concurrent reader
	// goroutine that shares the Arena value.
	zeroBuf []byte
}

// NewArena formats dev as an empty arena with the given user slot size and
// the default slot capacity. Any previous contents are ignored.
func NewArena(dev *nvbm.Device, slotSize int) *Arena {
	return NewArenaCap(dev, slotSize, DefaultMaxSlots)
}

// NewArenaCap formats dev with an explicit slot capacity (the persistent
// allocation bitmap is sized once at format time, like a filesystem's
// inode table).
func NewArenaCap(dev *nvbm.Device, slotSize, maxSlots int) *Arena {
	if slotSize <= 0 {
		panic("pmem: slot size must be positive")
	}
	if maxSlots <= 0 {
		panic("pmem: max slots must be positive")
	}
	a := &Arena{
		dev:      dev,
		slotSize: slotSize,
		stride:   align8(slotSize),
		maxSlots: maxSlots,
		zeroBuf:  make([]byte, slotSize),
	}
	reformatting := dev.Size() > 0
	if min := a.slotsBase(); dev.Size() < min {
		dev.Grow(min)
	}
	dev.WriteAt(magicOff, arenaMagic[:])
	dev.WriteU32(slotSizeOff, uint32(slotSize))
	dev.WriteU32(strideOff, uint32(a.stride))
	dev.WriteU32(highWaterOff, 0)
	dev.WriteU32(maxSlotsOff, uint32(maxSlots))
	dev.WriteU64(geomSumOff, geometrySum(slotSize, a.stride, maxSlots))
	for i := 0; i < NumRoots; i++ {
		dev.WriteU64(rootTableOff+8*i, 0)
	}
	if reformatting {
		// Old contents may sit under the bitmap: zero it in one bulk
		// write. A fresh device is already zeroed.
		dev.WriteAt(headerSize, make([]byte, a.bitmapBytes()))
	}
	return a
}

// OpenArena maps an existing formatted arena in dev, rebuilding the
// volatile allocation mirror and live count from the persistent allocation
// bitmap — one small sequential read, the recovery path after a crash or
// restart. The free list is built from the mirror on the first allocation
// or free (listFree), in the order an eager build would give it.
func OpenArena(dev *nvbm.Device) (*Arena, error) {
	if dev.Size() < headerSize {
		return nil, fmt.Errorf("pmem: device too small (%d bytes) to hold an arena header", dev.Size())
	}
	var magic [8]byte
	dev.ReadAt(magicOff, magic[:])
	if magic != arenaMagic {
		return nil, fmt.Errorf("%w %q", ErrBadMagic, magic[:])
	}
	a := &Arena{
		dev:      dev,
		slotSize: int(dev.ReadU32(slotSizeOff)),
		stride:   int(dev.ReadU32(strideOff)),
		maxSlots: int(dev.ReadU32(maxSlotsOff)),
	}
	a.highWater.Store(dev.ReadU32(highWaterOff))
	// The stride is derived from the slot size, never chosen: any other
	// value moves every slot offset, and an all-zero record read from the
	// wrong place decodes as a valid empty root. The capacity moves them
	// too (the bitmap before the slots grows with it), and only the
	// checksum tells a flipped one from a real one.
	if a.slotSize <= 0 || a.stride != align8(a.slotSize) || a.maxSlots <= 0 ||
		dev.ReadU64(geomSumOff) != geometrySum(a.slotSize, a.stride, a.maxSlots) {
		return nil, fmt.Errorf("pmem: corrupt arena geometry: slot %d stride %d cap %d", a.slotSize, a.stride, a.maxSlots)
	}
	a.zeroBuf = make([]byte, a.slotSize)
	if int(a.highWater.Load()) > a.maxSlots {
		return nil, fmt.Errorf("pmem: high water %d exceeds capacity %d", a.highWater.Load(), a.maxSlots)
	}
	// Every handed-out slot was backed by the device when it was
	// allocated (allocation grows the device first), so a high-water mark
	// past the device's end is corrupt, not merely large.
	if hw := a.highWater.Load(); hw > 0 && a.slotOff(hw-1)+a.stride > dev.Size() {
		return nil, fmt.Errorf("pmem: corrupt arena geometry: high water %d ends past the device (%d bytes)", hw, dev.Size())
	}
	// Rebuild the mirror from the bitmap prefix covering handed-out slots:
	// one sequential read, then one word at a time. Bits past the high
	// water are ignored.
	n := int(a.highWater.Load())
	if n > 0 {
		bm := make([]byte, (n+63)/64*8)
		a.dev.ReadAt(headerSize, bm[:(n+7)/8])
		a.liveWords = make([]uint64, (n+63)/64)
		a.dirty = make([]uint64, (len(a.liveWords)+63)/64)
		for wi := range a.liveWords {
			w := binary.LittleEndian.Uint64(bm[8*wi:])
			if rem := n - 64*wi; rem < 64 {
				w &= 1<<rem - 1
			}
			a.liveWords[wi] = w
			a.live += bits.OnesCount64(w)
		}
		a.unlisted = true
	}
	return a, nil
}

// listFree builds the free list of a reopened arena (unlisted) from the
// mirror, in ascending slot order, on its first allocation or free.
func (a *Arena) listFree() {
	a.unlisted = false
	n := int(a.highWater.Load())
	a.free = make([]uint32, 0, n-a.live)
	for wi, w := range a.liveWords {
		free := ^w
		if rem := n - 64*wi; rem < 64 {
			free &= 1<<rem - 1
		}
		for ; free != 0; free &= free - 1 {
			a.free = append(a.free, uint32(64*wi+bits.TrailingZeros64(free)))
		}
	}
}

// bitmapBytes returns the persistent bitmap size.
func (a *Arena) bitmapBytes() int { return (a.maxSlots + 7) / 8 }

// slotsBase returns the device offset of slot 0.
func (a *Arena) slotsBase() int { return headerSize + a.bitmapBytes() }

// slotOff returns the device offset of slot i's payload.
func (a *Arena) slotOff(i uint32) int {
	return a.slotsBase() + int(i)*a.stride
}

// cover extends the mirror and the dirty set to hold slot i's word.
func (a *Arena) cover(i uint32) {
	wi := int(i / 64)
	if wi < len(a.liveWords) {
		return
	}
	a.liveWords = append(a.liveWords, make([]uint64, wi+1-len(a.liveWords))...)
	if dw := wi/64 + 1; dw > len(a.dirty) {
		a.dirty = append(a.dirty, make([]uint64, dw-len(a.dirty))...)
	}
}

// setBit flips slot i's allocation bit in the mirror and marks its word
// dirty.
func (a *Arena) setBit(i uint32, on bool) {
	a.cover(i)
	if on {
		a.liveWords[i/64] |= 1 << (i % 64)
	} else {
		a.liveWords[i/64] &^= 1 << (i % 64)
	}
	a.markDirty(int(i / 64))
}

// markDirty records that mirror word wi changed since the last landing.
func (a *Arena) markDirty(wi int) { a.dirty[wi/64] |= 1 << (wi % 64) }

// bit reads slot i's allocation bit from the mirror — uncharged, because
// the host never touches the device here.
func (a *Arena) bit(i uint32) bool {
	if wi := int(i / 64); wi < len(a.liveWords) {
		return a.liveWords[wi]&(1<<(i%64)) != 0
	}
	return false
}

// SetWearLeveling selects FIFO free-slot recycling, rotating writes
// across freed slots to even out NVBM cell wear (see EnduranceReport).
func (a *Arena) SetWearLeveling(on bool) { a.wearLevel = on }

// Alloc allocates a slot and returns its handle. The slot contents are
// zeroed. It panics when the formatted capacity is exhausted.
func (a *Arena) Alloc() Handle {
	h := a.AllocRaw()
	a.dev.WriteAt(a.slotOff(uint32(h-1)), a.zeroBuf)
	return h
}

// AllocRaw allocates a slot without zeroing it. Callers that immediately
// overwrite the whole payload (the octree always writes a full record into
// a fresh slot) use this to avoid a redundant full-slot write.
func (a *Arena) AllocRaw() Handle {
	if a.unlisted {
		a.listFree()
	}
	var idx uint32
	if a.wearLevel && a.fifoHead < len(a.free) {
		idx = a.free[a.fifoHead]
		a.fifoHead++
		if a.fifoHead == len(a.free) {
			a.free = a.free[:0]
			a.fifoHead = 0
		}
	} else if n := len(a.free); n > a.fifoHead {
		idx = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if int(a.highWater.Load()) >= a.maxSlots {
			panic(fmt.Sprintf("pmem: arena capacity %d exhausted", a.maxSlots))
		}
		idx = a.highWater.Load()
		need := a.slotOff(idx) + a.stride
		if need > a.dev.Size() {
			// Grow geometrically to amortize; growth is
			// administrative and uncharged.
			newSize := a.dev.Size() * 2
			if newSize < need {
				newSize = need
			}
			a.dev.Grow(newSize)
		}
		a.highWater.Store(idx + 1)
	}
	a.setBit(idx, true)
	a.live++
	return Handle(idx + 1)
}

// AllocRun allocates n consecutive slots starting at the high-water mark
// and returns the handle of the first; handles h .. h+n-1 address the run
// in order, at Stride-spaced device offsets, so the caller can store all
// payloads with one WriteSpanExclusive. The free list is deliberately
// bypassed: recycled slots are scattered, and the point of a run is
// contiguity. The run sets whole mirror words at a time and dirties each
// once, so bulk construction of a 10^5-octant tree lands O(bitmap bytes),
// not O(slots), of allocation state.
func (a *Arena) AllocRun(n int) Handle {
	if n <= 0 {
		panic("pmem: AllocRun length must be positive")
	}
	start := a.highWater.Load()
	if int(start)+n > a.maxSlots {
		panic(fmt.Sprintf("pmem: arena capacity %d exhausted by run of %d slots at %d", a.maxSlots, n, start))
	}
	end := start + uint32(n)
	if need := a.slotOff(end-1) + a.stride; need > a.dev.Size() {
		newSize := a.dev.Size() * 2
		if newSize < need {
			newSize = need
		}
		a.dev.Grow(newSize)
	}
	a.highWater.Store(end)
	a.cover(end - 1)
	for i := start; i < end; {
		wi := int(i / 64)
		count := 64 - i%64
		if rem := end - i; rem < count {
			count = rem
		}
		mask := ^uint64(0)
		if count < 64 {
			mask = (uint64(1)<<count - 1) << (i % 64)
		}
		a.liveWords[wi] |= mask
		a.markDirty(wi)
		i += count
	}
	a.live += n
	return Handle(start + 1)
}

// Free releases the slot. Freeing the nil handle is a no-op; double frees
// panic, because they indicate octree corruption.
func (a *Arena) Free(h Handle) {
	if h.IsNil() {
		return
	}
	a.freeIndex(a.index(h))
}

// FreeSet frees every allocated slot whose bit is set in dead (bit i%64 of
// word i/64 for slot index i) and returns how many it freed. Each word's
// dead group leaves the mirror in one operation; the freed slots join the
// free list in ascending handle order, so the allocator ends exactly as a
// Free of each of those handles in turn would leave it. Set bits of slots
// that are not allocated are ignored.
func (a *Arena) FreeSet(dead []uint64) int {
	if a.unlisted {
		a.listFree()
	}
	n := 0
	for wi := 0; wi < len(dead) && wi < len(a.liveWords); wi++ {
		group := dead[wi] & a.liveWords[wi]
		if group == 0 {
			continue
		}
		a.liveWords[wi] &^= group
		a.markDirty(wi)
		n += bits.OnesCount64(group)
		for ; group != 0; group &= group - 1 {
			a.free = append(a.free, uint32(wi*64+bits.TrailingZeros64(group)))
		}
	}
	a.live -= n
	return n
}

// freeIndex frees slot idx, panicking on a double free.
func (a *Arena) freeIndex(idx uint32) {
	if !a.bit(idx) {
		panic(fmt.Sprintf("pmem: double free of handle %d", idx+1))
	}
	if a.unlisted {
		a.listFree()
	}
	a.setBit(idx, false)
	a.free = append(a.free, idx)
	a.live--
}

// index converts a handle to a 0-based slot index, validating range.
func (a *Arena) index(h Handle) uint32 {
	if h.IsNil() {
		panic("pmem: nil handle dereference")
	}
	idx := uint32(h - 1)
	if hw := a.highWater.Load(); idx >= hw {
		panic(fmt.Sprintf("pmem: handle %d beyond high water %d", h, hw))
	}
	return idx
}

// Live reports whether h refers to a currently allocated slot. Used by
// mark-and-sweep to skip already-free slots.
func (a *Arena) Live(h Handle) bool {
	if h.IsNil() {
		return false
	}
	idx := uint32(h - 1)
	if idx >= a.highWater.Load() {
		return false
	}
	return a.bit(idx)
}

// Read copies the slot payload into p (up to slotSize bytes).
func (a *Arena) Read(h Handle, p []byte) {
	idx := a.index(h)
	if len(p) > a.slotSize {
		p = p[:a.slotSize]
	}
	a.dev.ReadAt(a.slotOff(idx), p)
}

// Write copies p into the slot payload (up to slotSize bytes).
func (a *Arena) Write(h Handle, p []byte) {
	idx := a.index(h)
	if len(p) > a.slotSize {
		p = p[:a.slotSize]
	}
	a.dev.WriteAt(a.slotOff(idx), p)
}

// Stride returns the allocated bytes per slot: the payload size rounded
// up to 8-byte alignment. Consecutive slot offsets differ by exactly
// Stride.
func (a *Arena) Stride() int { return a.stride }

// WriteSpanExclusive stores p — the images of one or more CONSECUTIVE
// slots, laid out at Stride intervals starting with slot h — in a single
// exclusive device access. Bulk construction stores an AllocRun's records
// this way: one store amortizes the per-access device latency across the
// run. The caller must own every slot the span covers (the inter-record
// padding bytes are written too; they are zero in fresh slots and
// unobservable through Read).
func (a *Arena) WriteSpanExclusive(h Handle, p []byte) {
	a.dev.WriteAtExclusive(a.slotOff(a.index(h)), p)
}

// BitWord is one allocation-bitmap word awaiting its landing: the 64-slot
// word at index Index held value Val when TakeDirtyBits snapshotted it.
// The little-endian encoding of Val is byte-for-byte the persistent
// bitmap's layout (slot i lives in byte i/8, bit i%8).
type BitWord struct {
	Index int
	Val   uint64
}

// TakeDirtyBits snapshots every bitmap word dirtied since the last take, in
// ascending index order (appending to dst), along with the current
// high-water mark, and clears the dirty set. The octree's commit path
// takes a snapshot per version, so it captures exactly the allocations
// and frees up to that version, and lands it with WriteBitsExclusive
// before the store that makes the version's root reachable.
// Mutator-only.
func (a *Arena) TakeDirtyBits(dst []BitWord) ([]BitWord, uint32) {
	for di, d := range a.dirty {
		if d == 0 {
			continue
		}
		for ; d != 0; d &= d - 1 {
			wi := di*64 + bits.TrailingZeros64(d)
			dst = append(dst, BitWord{Index: wi, Val: a.liveWords[wi]})
		}
		a.dirty[di] = 0
	}
	return dst, a.highWater.Load()
}

// WriteBitsExclusive lands TakeDirtyBits snapshots: the words are sorted
// and adjacent ones coalesced into single exclusive device writes (a
// step's allocations are near-sequential, so a few thousand bit flips
// typically collapse into one span), then the high-water mark is stored.
// Words given more than once apply last-wins, so snapshots taken one after
// another may be concatenated in the order taken. A power cut mid-span tears at line
// granularity — untouched words keep their old durable value, which
// describes only slots no durable root references (leaks at worst). With
// no words it stores nothing: every allocation dirties a word, so the
// high water has not moved since the previous landing.
func (a *Arena) WriteBitsExclusive(words []BitWord, highWater uint32) {
	if len(words) == 0 {
		return
	}
	byIndex := func(a, b BitWord) int { return cmp.Compare(a.Index, b.Index) }
	sorted := words
	if !slices.IsSortedFunc(words, byIndex) {
		// Concatenated snapshots. Stable: duplicate
		// Indexes keep their given order, so last-wins below really
		// applies the NEWEST snapshot of a word. An unstable sort could
		// land a pre-allocation value of a word over the snapshot that set
		// the new version's bits — clearing, on the device, slots the
		// version flipped right afterwards references.
		sorted = slices.Clone(words)
		slices.SortStableFunc(sorted, byIndex)
	}
	buf := make([]byte, 0, 8*len(sorted))
	back := make([]byte, 8*len(sorted))
	flush := func(start int) {
		off := headerSize + 8*start
		n := len(buf)
		if rem := a.bitmapBytes() - 8*start; rem < n {
			n = rem
		}
		a.storeChecked(off, buf[:n], back[:n])
	}
	start := -1
	for i, w := range sorted {
		if i > 0 && w.Index == sorted[i-1].Index {
			// Duplicate: overwrite in place, last wins.
			binary.LittleEndian.PutUint64(buf[len(buf)-8:], w.Val)
			continue
		}
		if start >= 0 && w.Index != sorted[i-1].Index+1 {
			flush(start)
			buf = buf[:0]
			start = -1
		}
		if start < 0 {
			start = w.Index
		}
		buf = binary.LittleEndian.AppendUint64(buf, w.Val)
	}
	flush(start)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], highWater)
	a.storeChecked(highWaterOff, b[:], back[:4])
}

// storeChecked stores p exclusively at device offset off and reads it back
// into back (len(p) bytes), panicking with ErrStoreLost if it did not land.
func (a *Arena) storeChecked(off int, p, back []byte) {
	a.dev.WriteAtExclusive(off, p)
	a.dev.ReadAt(off, back)
	if !bytes.Equal(back, p) {
		panic(ErrStoreLost)
	}
}

// ReadField copies len(p) payload bytes starting at field offset off.
func (a *Arena) ReadField(h Handle, off int, p []byte) {
	idx := a.index(h)
	if off < 0 || off+len(p) > a.slotSize {
		panic(fmt.Sprintf("pmem: field [%d,%d) outside slot of %d bytes", off, off+len(p), a.slotSize))
	}
	a.dev.ReadAt(a.slotOff(idx)+off, p)
}

// WriteField writes p at field offset off within the slot payload.
func (a *Arena) WriteField(h Handle, off int, p []byte) {
	idx := a.index(h)
	if off < 0 || off+len(p) > a.slotSize {
		panic(fmt.Sprintf("pmem: field [%d,%d) outside slot of %d bytes", off, off+len(p), a.slotSize))
	}
	a.dev.WriteAt(a.slotOff(idx)+off, p)
}

// SetRoot stores v in persistent root slot i. PM-octree keeps ADDR(Vi) and
// ADDR(Vi-1) here; swapping them is the atomic commit point of a time step.
// The store is read back: a worn-out line that dropped it panics with
// ErrStoreLost.
func (a *Arena) SetRoot(i int, v uint64) {
	if i < 0 || i >= NumRoots {
		panic(fmt.Sprintf("pmem: root index %d out of range", i))
	}
	a.dev.WriteU64(rootTableOff+8*i, v)
	if a.dev.ReadU64(rootTableOff+8*i) != v {
		panic(ErrStoreLost)
	}
}

// Root loads persistent root slot i.
func (a *Arena) Root(i int) uint64 {
	if i < 0 || i >= NumRoots {
		panic(fmt.Sprintf("pmem: root index %d out of range", i))
	}
	return a.dev.ReadU64(rootTableOff + 8*i)
}

// SlotRange returns the device byte range [off, off+n) backing h's
// payload, so media-integrity checks (per-line CRC validation) can be
// scoped to exactly the bytes a version's octants occupy.
func (a *Arena) SlotRange(h Handle) (off, n int) {
	return a.slotOff(a.index(h)), a.slotSize
}

// DataOffset returns the device offset where slot payloads begin; bytes
// below it are allocator metadata (header, roots, bitmap). Wear analyses
// separate the two regions: metadata lines are structurally hot.
func (a *Arena) DataOffset() int { return a.slotsBase() }

// SlotSize returns the user payload size per slot.
func (a *Arena) SlotSize() int { return a.slotSize }

// LiveCount returns the number of currently allocated slots.
func (a *Arena) LiveCount() int { return a.live }

// HighWater returns the number of slots ever handed out; handles range over
// [1, HighWater].
func (a *Arena) HighWater() uint32 { return a.highWater.Load() }

// Device returns the underlying memory device (for statistics).
func (a *Arena) Device() *nvbm.Device { return a.dev }

// LiveWords returns the allocation-bitmap mirror, 64 slots per
// uint64, bit i%64 of word i/64 set iff slot i is allocated. It is a
// host-side view: reading it charges no device traffic (callers modeling
// a persistent-bitmap scan account for it explicitly, e.g. via
// Device().ChargeReadN). The slice is owned by the arena and mutated by
// every Alloc/Free; callers must not modify or retain it.
func (a *Arena) LiveWords() []uint64 { return a.liveWords }

// SetBudget sets the slot capacity used for utilization tracking. Zero
// disables tracking (utilization reports 0).
func (a *Arena) SetBudget(slots int) { a.budget = slots }

// Budget returns the configured slot capacity.
func (a *Arena) Budget() int { return a.budget }

// Utilization returns live/budget in [0,1], or 0 when no budget is set.
// The paper triggers merging when available space (1-utilization) drops
// below threshold_DRAM or threshold_NVBM.
func (a *Arena) Utilization() float64 {
	if a.budget <= 0 {
		return 0
	}
	u := float64(a.live) / float64(a.budget)
	if u > 1 {
		u = 1
	}
	return u
}

// BytesInUse returns the device bytes consumed by live slots.
func (a *Arena) BytesInUse() int { return a.live * a.stride }

func align8(n int) int { return (n + 7) &^ 7 }
