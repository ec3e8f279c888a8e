package nvbm

import (
	"hash/crc32"
	"math/rand"
	"sort"
	"sync/atomic"
)

// Fault model. Real NVBM fails less cleanly than an atomic stop: a power
// cut tears the in-flight store at cache-line granularity, media cells rot
// silently, and worn-out lines stop accepting writes. This file adds those
// failure modes to the emulated Device, plus the self-healing machinery
// layered on top: a per-line CRC shadow (the "media ECC" a controller would
// keep), a scrub pass that detects corrupt lines and repairs them from a
// commit-consistent source (the replica), and remapping of worn-out lines
// onto spare lines.
//
// All fault state is opt-in and seeded, so the default device is exactly as
// fast and exactly as deterministic as before: with media tracking off and
// no wear limit, WriteAt takes the original fast path and no CRC is
// maintained.
//
// Concurrency: media tracking recomputes whole-line CRCs on write, so two
// shared-lock writers (WriteAt) sharing a cache line would race on the CRC
// even when their byte ranges are disjoint. With tracking on, enable only
// single-writer phases or line-disjoint access patterns per lock class —
// or route one side through WriteAtExclusive, which serializes against
// every other access, as the persist pipeline's background writeback does
// (its slot payloads are not line-aligned).

// zeroLineCRC is the CRC-32 of an all-zero full line, used to initialize
// the shadow for freshly grown (zeroed) capacity.
var zeroLineCRC = crc32.ChecksumIEEE(make([]byte, LineSize))

// EnableMediaTracking turns on the per-line CRC shadow for an NVBM device,
// computing checksums for the current contents. Subsequent legitimate
// writes keep the shadow in sync (torn writes update it for the lines that
// landed — tearing is a crash artifact, not media damage); out-of-band
// corruption injected with FlipBit shows up as a CRC mismatch.
func (d *Device) EnableMediaTracking() {
	if d.kind != NVBM {
		panic("nvbm: media tracking is NVBM-only")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lineCRC = make([]uint32, len(d.wear))
	for line := range d.lineCRC {
		d.lineCRC[line] = d.lineChecksumLocked(line)
	}
	d.track.Store(true)
}

// MediaTracking reports whether the per-line CRC shadow is maintained.
func (d *Device) MediaTracking() bool { return d.track.Load() }

// SetWearLimit sets the wear-out threshold: once a line's wear counter
// reaches limit, further stores to it are silently dropped (the cell is
// stuck) until a scrub pass remaps it onto a spare line. 0 disables.
func (d *Device) SetWearLimit(limit uint32) { d.wearLimit.Store(limit) }

// WearLimit returns the wear-out threshold (0 = unlimited endurance).
func (d *Device) WearLimit() uint32 { return d.wearLimit.Load() }

// SetSpareLines sets the pool of spare lines available for remapping
// worn-out lines during scrub.
func (d *Device) SetSpareLines(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spare = n
}

// SpareLines returns the number of unconsumed spare lines.
func (d *Device) SpareLines() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.spare
}

// CutPowerAfterTorn arms a power cut like CutPowerAfter, but the write
// that trips the countdown is torn: a seeded prefix or random subset of
// its cache lines persists before the device dies, instead of the whole
// store being dropped atomically. This is the fault model of Ben-David et
// al.: at failure, each outstanding cache line independently either
// reached the media or did not.
func (d *Device) CutPowerAfterTorn(n int, seed int64) {
	if n < 0 {
		panic("nvbm: negative power-cut countdown")
	}
	d.tornSeed.Store(seed)
	d.tornPending.Store(true)
	d.powerCut.Store(int64(n))
}

// tearWrite persists a seeded subset of the cache lines of the write
// (off, p) — the final store in flight when power failed. Wear and the
// CRC shadow are updated for lines that landed (the media saw a complete
// line store); nothing is charged to statistics, since the machine died
// before the access completed.
func (d *Device) tearWrite(off int, p []byte) {
	if len(p) == 0 {
		return
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off < 0 || off+len(p) > len(d.data) {
		return
	}
	rng := rand.New(rand.NewSource(d.tornSeed.Load()))
	first := off / LineSize
	last := (off + len(p) - 1) / LineSize
	n := last - first + 1
	prefixMode := rng.Intn(2) == 0
	keep := rng.Intn(n + 1)
	dropped := 0
	for i := 0; i < n; i++ {
		persist := i < keep
		if !prefixMode {
			persist = rng.Intn(2) == 0
		}
		if !persist {
			dropped++
			continue
		}
		line := first + i
		lo := max(off, line*LineSize)
		hi := min(off+len(p), (line+1)*LineSize)
		copy(d.data[lo:hi], p[lo-off:hi-off])
		if line < len(d.wear) {
			atomic.AddUint32(&d.wear[line], 1)
		}
		if d.track.Load() && line < len(d.lineCRC) {
			atomic.StoreUint32(&d.lineCRC[line], d.lineChecksumLocked(line))
		}
	}
	d.tornWrites.Add(1)
	d.tornDropped.Add(uint64(dropped))
}

// FlipBit flips one bit of device contents in place without touching the
// CRC shadow, modeling silent media corruption (bit-rot). Returns false if
// off is out of range. Detection requires media tracking.
func (d *Device) FlipBit(off int, bit uint8) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off >= len(d.data) {
		return false
	}
	d.data[off] ^= 1 << (bit % 8)
	d.bitFlips.Add(1)
	return true
}

// RangeCorrupt reports whether any line overlapping [off, off+n) fails its
// CRC check. Always false when media tracking is off. The check models the
// controller's ECC verify and is not charged latency.
func (d *Device) RangeCorrupt(off, n int) bool {
	if !d.track.Load() || n <= 0 {
		return false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off < 0 {
		off = 0
	}
	end := off + n
	if end > len(d.data) {
		end = len(d.data)
	}
	if off >= end {
		return false
	}
	for line := off / LineSize; line <= (end-1)/LineSize; line++ {
		if line < len(d.lineCRC) && d.lineChecksumLocked(line) != atomic.LoadUint32(&d.lineCRC[line]) {
			return true
		}
	}
	return false
}

// CorruptLines returns the indices of all lines whose contents fail the
// CRC check, in ascending order. Empty when media tracking is off.
func (d *Device) CorruptLines() []int {
	if !d.track.Load() {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var bad []int
	for line := range d.lineCRC {
		if d.lineChecksumLocked(line) != d.lineCRC[line] {
			bad = append(bad, line)
		}
	}
	return bad
}

// StuckLines returns the indices of lines whose wear has reached the
// wear-out threshold (writes to them are being dropped), ascending.
func (d *Device) StuckLines() []int {
	limit := d.wearLimit.Load()
	if limit == 0 {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var stuck []int
	for line := range d.wear {
		if atomic.LoadUint32(&d.wear[line]) >= limit {
			stuck = append(stuck, line)
		}
	}
	sort.Ints(stuck)
	return stuck
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	LinesScanned int    // lines checked against the CRC shadow
	Corrupt      int    // lines whose contents failed the check
	Repaired     int    // corrupt lines rewritten from the source
	Remapped     int    // worn-out lines remapped onto spares
	Unrepairable int    // lines left corrupt or stuck (no source / no spare)
	SparesLeft   int    // spare lines remaining after the pass
	ModeledNs    uint64 // modeled device time charged for the pass
}

// Scrub runs one media scrub pass: every line is read and checked against
// the CRC shadow; corrupt lines are repaired by fetching their contents
// from src, and worn-out lines are remapped onto spare lines (resetting
// their wear). src fills p with the authoritative bytes at device offset
// off and reports whether it could; it must be commit-consistent with this
// device (a replica synced at the current committed version), otherwise
// repair would roll lines back across versions. A nil src detects and
// remaps but cannot repair.
//
// The pass charges one modeled line read per scanned line and one modeled
// line write per repaired or remapped line, the cost a background scrubber
// would impose on the device.
func (d *Device) Scrub(src func(off int, p []byte) bool) ScrubReport {
	var rep ScrubReport
	if !d.track.Load() {
		return rep
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	limit := d.wearLimit.Load()
	buf := make([]byte, LineSize)
	ns0 := d.modeledNs.Load()
	for line := range d.lineCRC {
		rep.LinesScanned++
		lo := line * LineSize
		hi := min(lo+LineSize, len(d.data))
		stuck := limit > 0 && atomic.LoadUint32(&d.wear[line]) >= limit
		bad := d.lineChecksumLocked(line) != d.lineCRC[line]
		if !bad && !stuck {
			continue
		}
		if bad {
			rep.Corrupt++
		}
		if stuck {
			if d.spare > 0 {
				// Remap onto a spare line: the logical line now maps to a
				// fresh cell, so its wear history restarts.
				d.spare--
				atomic.StoreUint32(&d.wear[line], 0)
				rep.Remapped++
			} else {
				rep.Unrepairable++
				continue // cannot write this line; repair is impossible
			}
		}
		if bad || stuck {
			// Refresh contents from the commit-consistent source. For a
			// remapped (but CRC-clean) line this heals any store that was
			// silently dropped while the cell was stuck.
			b := buf[:hi-lo]
			if src != nil && src(lo, b) {
				copy(d.data[lo:hi], b)
				atomic.AddUint32(&d.wear[line], 1)
				d.lineCRC[line] = d.lineChecksumLocked(line)
				if bad {
					rep.Repaired++
				}
			} else if bad {
				rep.Unrepairable++
			}
		}
	}
	d.ChargeReadN(rep.LinesScanned, LineSize)
	d.ChargeWriteN(rep.Repaired+rep.Remapped, LineSize)
	rep.ModeledNs = d.modeledNs.Load() - ns0
	rep.SparesLeft = d.spare
	d.scrubPasses++
	d.scrubScanned += uint64(rep.LinesScanned)
	d.scrubCorrupt += uint64(rep.Corrupt)
	d.scrubRepaired += uint64(rep.Repaired)
	d.scrubRemapped += uint64(rep.Remapped)
	d.scrubUnrepairable += uint64(rep.Unrepairable)
	return rep
}

// RemapWorn remaps every worn-out line onto a spare line, as a scrub pass
// does, but checks and repairs nothing: a remapped line keeps the contents
// it last accepted. Recovery with no commit-consistent repair source calls
// it, so that lines which dropped stores accept them again. It returns the
// number of lines remapped (counted with scrub's remaps and charged one
// line write each); worn lines beyond the spare pool stay stuck.
func (d *Device) RemapWorn() int {
	limit := d.wearLimit.Load()
	if limit == 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for line := range d.wear {
		if d.spare == 0 {
			break
		}
		if atomic.LoadUint32(&d.wear[line]) >= limit {
			d.spare--
			atomic.StoreUint32(&d.wear[line], 0)
			n++
		}
	}
	d.ChargeWriteN(n, LineSize)
	d.scrubRemapped += uint64(n)
	return n
}

// FaultStats is a snapshot of the device's fault and self-healing
// counters, published through the telemetry layer.
type FaultStats struct {
	TornWrites       uint64 // power cuts that tore an in-flight write
	TornLinesDropped uint64 // cache lines of torn writes that never landed
	BitFlips         uint64 // injected bit-rot events
	StuckWrites      uint64 // line stores dropped by worn-out cells
	ScrubPasses      uint64
	LinesScrubbed    uint64
	CorruptFound     uint64
	LinesRepaired    uint64
	LinesRemapped    uint64
	Unrepairable     uint64
	SparesLeft       int
}

// FaultStats returns the current fault counters.
func (d *Device) FaultStats() FaultStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return FaultStats{
		TornWrites:       d.tornWrites.Load(),
		TornLinesDropped: d.tornDropped.Load(),
		BitFlips:         d.bitFlips.Load(),
		StuckWrites:      d.stuckWrites.Load(),
		ScrubPasses:      d.scrubPasses,
		LinesScrubbed:    d.scrubScanned,
		CorruptFound:     d.scrubCorrupt,
		LinesRepaired:    d.scrubRepaired,
		LinesRemapped:    d.scrubRemapped,
		Unrepairable:     d.scrubUnrepairable,
		SparesLeft:       d.spare,
	}
}

// lineChecksumLocked computes the CRC-32 of one line's current contents.
// Caller holds d.mu (either mode).
func (d *Device) lineChecksumLocked(line int) uint32 {
	lo := line * LineSize
	hi := min(lo+LineSize, len(d.data))
	if lo >= hi {
		return zeroLineCRC
	}
	return crc32.ChecksumIEEE(d.data[lo:hi])
}

// writeLinesLocked is the slow write path, taken when a wear limit or
// media tracking is active: the store is applied line by line so that
// worn-out lines can drop it and the CRC shadow stays in sync. Caller
// holds d.mu (RLock on the WriteAt path, Lock on the WriteAtExclusive
// path) and has bounds-checked (off, p).
func (d *Device) writeLinesLocked(off int, p []byte) {
	limit := d.wearLimit.Load()
	track := d.track.Load()
	first := off / LineSize
	last := (off + len(p) - 1) / LineSize
	for line := first; line <= last; line++ {
		lo := max(off, line*LineSize)
		hi := min(off+len(p), (line+1)*LineSize)
		if line >= len(d.wear) {
			copy(d.data[lo:hi], p[lo-off:hi-off])
			continue
		}
		if limit > 0 && atomic.LoadUint32(&d.wear[line]) >= limit {
			// Worn-out cell: the store silently never reaches the media.
			d.stuckWrites.Add(1)
			continue
		}
		copy(d.data[lo:hi], p[lo-off:hi-off])
		atomic.AddUint32(&d.wear[line], 1)
		if track && line < len(d.lineCRC) {
			atomic.StoreUint32(&d.lineCRC[line], d.lineChecksumLocked(line))
		}
	}
}
