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
// its volatile allocation state from one small sequential read — the
// allocator is crash-consistent without a log, and recovery cost is
// metadata-sized, not data-sized. Allocations and frees change only a
// volatile mirror of the bitmap; the caller lands the words they dirtied, and the high-water
// mark, once per commit (TakeDirtyBits, then WriteBitsExclusive) before the
// store that makes the new slots reachable. A crash therefore loses exactly
// the allocation state changed since the last landing: a lost allocation
// is a slot no durable root references, and a lost free is a leak the
// octree's mark-and-sweep GC reclaims. Landings and root stores are read
// back, so one that a worn-out line dropped panics (ErrStoreLost) instead
// of going unnoticed. An arena on a DRAM device keeps no bitmap: nothing
// in DRAM survives a crash, so its mirror is its whole allocation state.
package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
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
// exception is carved out, MVCC serving: Read/ReadWith/Live/HighWater on
// slots that are never freed or rewritten (committed, pinned octree
// versions) may run concurrently with the single writer's AllocRaw/Write
// on OTHER slots — the high-water mark is atomic and the device tolerates
// disjoint-range access racing Grow. All volatile allocation bookkeeping
// (liveWords mirror, search hints, dirty set) belongs to the writer.
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
	live      int // currently allocated slots

	// low is a word index of liveWords: every word below it is full, so
	// the allocation search starts there. Frees lower it and allocations
	// advance it past full words, so a single-slot allocation costs
	// amortized O(1).
	low int
	// next is the slot after the last allocation, where the next-fit
	// search under wear leveling starts.
	next int

	// budget, when nonzero, is the slot capacity used for utilization
	// tracking (threshold_DRAM / threshold_NVBM in the paper). The arena
	// itself never refuses an allocation; policy lives in the caller.
	budget int

	// wearLevel switches the allocation search from first fit (the
	// lowest free slots, so a freed slot is reused at once) to next fit
	// (the first free slots after the last allocation, so writes rotate
	// across every freed slot). NVBM cells endure a bounded number of
	// writes, so long-running write-heavy workloads trade a little
	// locality for device lifetime.
	wearLevel bool

	// liveWords is the allocation bitmap's truth (64 slots per word) and
	// the allocator's only record of free slots: the persistent copy
	// trails it until the caller lands the dirty words. Allocation and
	// GC sweeps scan it word by word instead of probing the device per
	// handle.
	liveWords []uint64
	// dirty has one bit per liveWords index, set when the word changes and
	// cleared by TakeDirtyBits, which therefore emits words in ascending
	// order. It is bounded by the capacity (512 words at DefaultMaxSlots),
	// so an arena that is never landed — the DRAM region C0 — keeps it
	// small.
	dirty []uint64
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
	if reformatting && a.bitmapBytes() > 0 {
		// Old contents may sit under the bitmap: zero it in one bulk
		// write. A fresh device is already zeroed.
		dev.WriteAt(headerSize, make([]byte, a.bitmapBytes()))
	}
	return a
}

// OpenArena maps an existing formatted arena in dev, rebuilding the
// volatile allocation mirror and live count from the persistent allocation
// bitmap — one small sequential read, the recovery path after a crash or
// restart. The mirror is all the allocator needs, so the reopened arena
// allocates exactly as the one that landed the bitmap would.
func OpenArena(dev *nvbm.Device) (*Arena, error) {
	if dev.Size() < headerSize {
		return nil, fmt.Errorf("pmem: device too small (%d bytes) to hold an arena header", dev.Size())
	}
	var magic [8]byte
	dev.ReadAt(magicOff, magic[:])
	if magic != arenaMagic {
		return nil, fmt.Errorf("%w %q", ErrBadMagic, magic[:])
	}
	if dev.Kind() == nvbm.DRAM {
		return nil, errors.New("pmem: an arena on a DRAM device keeps no bitmap to reopen")
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
	}
	return a, nil
}

// bitmapBytes returns the persistent bitmap size: none on a DRAM device,
// so formatting a C0 arena costs its header alone.
func (a *Arena) bitmapBytes() int {
	if a.dev.Kind() == nvbm.DRAM {
		return 0
	}
	return (a.maxSlots + 7) / 8
}

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

// markDirty records that mirror word wi changed since the last landing.
func (a *Arena) markDirty(wi int) { a.dirty[uint(wi)/64] |= 1 << (uint(wi) % 64) }

// bit reads slot i's allocation bit from the mirror — uncharged, because
// the host never touches the device here.
func (a *Arena) bit(i uint32) bool {
	if wi := int(i / 64); wi < len(a.liveWords) {
		return a.liveWords[wi]&(1<<(i%64)) != 0
	}
	return false
}

// SetWearLeveling selects next-fit allocation, rotating writes across
// freed slots to even out NVBM cell wear (see EnduranceReport).
func (a *Arena) SetWearLeveling(on bool) { a.wearLevel = on }

// AllocRaw allocates a slot without zeroing it: AllocRun(1), the lowest
// free slot (next fit under wear leveling). Callers that immediately
// overwrite the whole payload (the octree always writes a full record
// into a fresh slot) need no zeroing store.
func (a *Arena) AllocRaw() Handle { return a.AllocRun(1) }

// growTo grows the device, geometrically to amortize, until it backs the
// first end slots. Growth is administrative and uncharged.
func (a *Arena) growTo(end uint32) {
	if need := a.slotOff(end-1) + a.stride; need > a.dev.Size() {
		newSize := a.dev.Size() * 2
		if newSize < need {
			newSize = need
		}
		a.dev.Grow(newSize)
	}
}

// AllocRun allocates n consecutive slots and returns the handle of the
// first; handles h .. h+n-1 address the run in order, at Stride-spaced
// device offsets, so the caller can store all payloads with one
// WriteSpanExclusive. The run starts at the lowest slot that has n free
// slots from it (first fit in address order, see firstFit), so space GC
// freed is reused before the high water moves: a free tail that ends at
// the high water counts toward the run, only the remainder raises the
// mark, and the device grows only when no free extent fits. Under wear
// leveling the search starts after the previous allocation instead (next
// fit) and falls back to first fit before it would raise the mark. The run
// sets whole mirror words at a time and dirties each once, so bulk
// construction of a 10^5-octant tree lands O(bitmap bytes), not O(slots),
// of allocation state.
func (a *Arena) AllocRun(n int) Handle {
	if n <= 0 {
		panic("pmem: AllocRun length must be positive")
	}
	first := a.fit(n)
	if first+n > a.maxSlots {
		panic(fmt.Sprintf("pmem: arena capacity %d exhausted by run of %d slots at %d", a.maxSlots, n, first))
	}
	start, end := uint32(first), uint32(first+n)
	if end > a.highWater.Load() {
		a.growTo(end)
		a.highWater.Store(end)
		a.cover(end - 1)
	}
	for wi := start / 64; wi <= (end-1)/64; wi++ {
		mask := ^uint64(0)
		if wi == start/64 {
			mask <<= start % 64 // the slots before the run
		}
		if wi == (end-1)/64 {
			mask &= ^uint64(0) >> (63 - (end-1)%64) // the slots after it
		}
		a.liveWords[wi] |= mask
		a.markDirty(int(wi))
	}
	a.live += n
	a.next = int(end)
	for a.low < len(a.liveWords) && a.liveWords[a.low] == ^uint64(0) {
		a.low++
	}
	return Handle(start + 1)
}

// fit returns the first slot of the run AllocRun(n) takes: under wear
// leveling the first fit after the previous allocation, unless it would
// raise the high water; otherwise the first fit from the low hint.
func (a *Arena) fit(n int) int {
	if a.wearLevel {
		if s := a.firstFit(n, a.next); s+n <= int(a.highWater.Load()) {
			return s
		}
	}
	return a.firstFit(n, 64*a.low)
}

// firstFit returns the lowest slot index s >= from such that slots
// s .. s+n-1 are all free, counting every slot at or past the high water
// as free (the mirror holds no bits there). It scans the mirror a word at
// a time: full words end the current free run, empty words add 64 slots
// to it, and a mixed word extends it by its low free bits, may hold a
// short run inside it, and starts the next run with its high free bits.
func (a *Arena) firstFit(n, from int) int {
	run := 0 // free slots that end where word wi starts
	for wi := int(uint(from) / 64); wi < len(a.liveWords); wi++ {
		w := a.liveWords[wi]
		if uint(wi) == uint(from)/64 {
			w |= uint64(1)<<(uint(from)%64) - 1 // slots before from count as taken
		}
		switch {
		case w == 0:
			if run+64 >= n {
				return 64*wi - run
			}
			run += 64
		case w == ^uint64(0):
			run = 0
		default:
			if run+bits.TrailingZeros64(w) >= n {
				return 64*wi - run
			}
			if n < 64 {
				if s := inWordRun(^w, n); s >= 0 {
					return 64*wi + s
				}
			}
			run = bits.LeadingZeros64(w)
		}
	}
	return 64*len(a.liveWords) - run
}

// inWordRun returns the lowest bit position i such that bits i .. i+n-1 of
// free are all set, or -1 when the word holds no n set bits in a row.
// Each step ANDs the word with itself shifted, doubling the run length
// every set bit stands for, up to n.
func inWordRun(free uint64, n int) int {
	for k := 1; k < n && free != 0; {
		s := k
		if n-k < s {
			s = n - k
		}
		free &= free >> s
		k += s
	}
	if free == 0 {
		return -1
	}
	return bits.TrailingZeros64(free)
}

// Free releases the slot. Freeing the nil handle is a no-op; double frees
// panic, because they indicate octree corruption.
func (a *Arena) Free(h Handle) {
	if h.IsNil() {
		return
	}
	idx := a.index(h)
	if !a.bit(idx) {
		panic(fmt.Sprintf("pmem: double free of handle %d", h))
	}
	wi := int(idx / 64)
	a.liveWords[wi] &^= 1 << (idx % 64)
	a.markDirty(wi)
	a.low = min(a.low, wi)
	a.live--
}

// FreeSet frees every allocated slot whose bit is set in dead (bit i%64 of
// word i/64 for slot index i) and returns how many it freed. Each word's
// dead group leaves the mirror in one operation, so the allocator ends
// exactly as a Free of each of those handles would leave it. Set bits of
// slots that are not allocated are ignored.
func (a *Arena) FreeSet(dead []uint64) int {
	n := 0
	for wi := 0; wi < len(dead) && wi < len(a.liveWords); wi++ {
		group := dead[wi] & a.liveWords[wi]
		if group == 0 {
			continue
		}
		a.liveWords[wi] &^= group
		a.markDirty(wi)
		a.low = min(a.low, wi)
		n += bits.OnesCount64(group)
	}
	a.live -= n
	return n
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

// payload returns h's payload offset and p cut to the slot size.
func (a *Arena) payload(h Handle, p []byte) (int, []byte) {
	return a.slotOff(a.index(h)), p[:min(len(p), a.slotSize)]
}

// Read copies the slot payload into p (up to slotSize bytes), charging
// the device's own meter.
func (a *Arena) Read(h Handle, p []byte) { a.dev.ReadAt(a.payload(h, p)) }

// ReadWith is Read charging m, a meter of the arena's device or
// nvbm.Discard.
func (a *Arena) ReadWith(m *nvbm.Meter, h Handle, p []byte) {
	off, p := a.payload(h, p)
	a.dev.ReadWith(m, off, p)
}

// Write copies p into the slot payload (up to slotSize bytes).
func (a *Arena) Write(h Handle, p []byte) { a.dev.WriteAt(a.payload(h, p)) }

// Stride returns the allocated bytes per slot: the payload size rounded
// up to 8-byte alignment. Consecutive slot offsets differ by exactly
// Stride.
func (a *Arena) Stride() int { return a.stride }

// WriteSpanExclusive stores p — the images of one or more CONSECUTIVE
// slots, laid out at Stride intervals starting with slot h — in a single
// exclusive device access. Bulk construction stores an AllocRun's records
// this way: one store amortizes the per-access device latency across the
// run. The caller must own every slot the span covers (the inter-record
// padding bytes are written too; they are unobservable through Read).
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

// WriteBitsExclusive lands one TakeDirtyBits snapshot: adjacent words are
// coalesced into single exclusive device writes (a step's allocations are
// near-sequential, so a few thousand bit flips typically collapse into one
// span), then the high-water mark is stored. The words must ascend without
// repeats, as TakeDirtyBits gives them; anything else panics before any
// store. A power cut mid-span tears at line granularity — untouched words
// keep their old durable value, which describes only slots no durable root
// references (leaks at worst). With no words it stores nothing: every
// allocation dirties a word, so the high water has not moved since the
// previous landing.
func (a *Arena) WriteBitsExclusive(words []BitWord, highWater uint32) {
	if len(words) == 0 {
		return
	}
	for i := 1; i < len(words); i++ {
		if words[i].Index <= words[i-1].Index {
			panic(fmt.Sprintf("pmem: WriteBitsExclusive: bitmap word %d follows word %d; words must ascend without repeats (TakeDirtyBits order)",
				words[i].Index, words[i-1].Index))
		}
	}
	buf := make([]byte, 0, 8*len(words))
	back := make([]byte, 8*len(words))
	flush := func(start int) {
		off := headerSize + 8*start
		n := len(buf)
		if rem := a.bitmapBytes() - 8*start; rem < n {
			n = rem
		}
		a.storeChecked(off, buf[:n], back[:n])
	}
	start := words[0].Index
	for i, w := range words {
		if i > 0 && w.Index != words[i-1].Index+1 {
			flush(start)
			buf = buf[:0]
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
