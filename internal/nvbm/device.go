// Package nvbm emulates byte-addressable memory devices with distinct
// performance characteristics: volatile DRAM and non-volatile
// byte-addressable memory (NVBM) such as PCM or STT-MRAM.
//
// The emulation follows the methodology of the PM-octree paper (SC '17,
// §5.1): the device is ordinary process memory, and NVBM latency is modeled
// per access. Two modeling modes are available and may be combined:
//
//   - Accounting mode (always on): every access adds the modeled latency to
//     a deterministic nanosecond counter of the Meter it is charged to.
//     Experiments report this modeled time, which is reproducible on any
//     host.
//   - Delay-injection mode (optional): every access additionally spins the
//     CPU for the modeled latency, as the paper's emulator did with the
//     RDTSCP timestamp counter, so wall-clock benchmarks feel the latency.
//
// A Device also tracks read/write operation and byte counts, summed over
// its meters (Stats), and per-line wear counters for endurance analysis
// (Table 2: NVBM endures 1e6–1e8 writes per bit, versus >1e16 for DRAM).
//
// Devices of kind NVBM survive Crash and can be persisted to and restored
// from a file; devices of kind DRAM lose their contents on Crash.
package nvbm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the two memory technologies a Device can emulate.
type Kind uint8

const (
	// DRAM is volatile memory: fast, contents lost on Crash.
	DRAM Kind = iota
	// NVBM is non-volatile byte-addressable memory: slower writes,
	// contents preserved across Crash and process restart.
	NVBM
)

// String returns the conventional name of the memory kind.
func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVBM:
		return "NVBM"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// LineSize is the granularity, in bytes, at which wear is tracked. It
// matches a CPU cache line, the unit in which stores reach the memory
// device.
const LineSize = 64

// Device is an emulated memory device. The zero value is not usable; create
// devices with New.
//
// Concurrency contract (the one parallel solver sweeps rely on): reads
// and writes to DISJOINT byte ranges may proceed concurrently with each
// other and with Grow — wear counters are atomic, and growth is serialized
// against in-flight accesses, so no access ever observes a half-swapped
// backing array and no wear increment is lost. Reads may additionally
// OVERLAP other reads freely: a read mutates nothing but its meter, so any
// number of goroutines may issue charged reads against the same committed
// lines — the MVCC serving layer's snapshot readers do exactly that, each
// through its own Meter, while the simulation writer keeps writing other
// lines through the device's. Overlapping writes (or a write overlapping a
// read) race exactly like raw memory: the data outcome is undefined,
// though the device structure and its counters stay consistent. Callers
// that share mutable ranges must synchronize, just as they would for a
// []byte.
type Device struct {
	kind Kind
	lat  Latency

	// mu guards growth of data/wear/lineCRC, spare and meters. It is one
	// stripe of the device lock: accesses charged to a taken meter hold
	// that meter's stripe instead, and lock takes them all.
	mu      sync.RWMutex
	data    []byte
	wear    []uint32 // per-LineSize-line write counts (NVBM only)
	lineCRC []uint32 // per-line CRC-32 shadow (media tracking; see faults.go)
	spare   int      // spare lines available for remapping worn-out lines

	inject atomic.Bool // spin-delay injection enabled
	track  atomic.Bool // media tracking (per-line CRC shadow) enabled

	meters   []*Meter   // every meter of the device, summed by Stats
	freeMu   sync.Mutex // guards released
	released *Meter     // released meters awaiting reuse
	own      *Meter     // the single-owner callers' meter
	// charged is the meter ReadAt, WriteAt, ChargeReadN and ChargeWriteN
	// charge: own, or Discard while SetAccounting(false).
	charged atomic.Pointer[Meter]

	// powerCut, when armed (>= 0), counts down on every write; once it
	// reaches zero the device stops accepting writes, emulating power
	// failing mid-operation. -1 = disarmed.
	powerCut atomic.Int64
	// tornPending marks that the write tripping the countdown should be
	// torn (a seeded subset of its lines persists) rather than dropped
	// atomically; exactly one racing writer wins the tear.
	tornPending atomic.Bool
	tornSeed    atomic.Int64
	// wearLimit, when nonzero, is the per-line endurance threshold: lines
	// at or beyond it silently drop stores until scrub remaps them.
	wearLimit atomic.Uint32

	// Fault and self-healing counters (see faults.go).
	tornWrites  atomic.Uint64
	tornDropped atomic.Uint64
	bitFlips    atomic.Uint64
	stuckWrites atomic.Uint64
	// Scrub counters, written only under mu.Lock in Scrub.
	scrubPasses       uint64
	scrubScanned      uint64
	scrubCorrupt      uint64
	scrubRepaired     uint64
	scrubRemapped     uint64
	scrubUnrepairable uint64
}

// New creates a Device of the given kind with the given initial capacity in
// bytes and the default latency model for that kind (Table 2 of the paper).
func New(kind Kind, size int) *Device {
	if size < 0 {
		panic("nvbm: negative device size")
	}
	d := &Device{kind: kind, lat: DefaultLatency(kind), data: make([]byte, size)}
	if kind == NVBM {
		d.wear = make([]uint32, (size+LineSize-1)/LineSize)
	}
	d.powerCut.Store(-1)
	d.own = d.Meter()
	d.charged.Store(d.own)
	return d
}

// Kind reports the memory technology this device emulates.
func (d *Device) Kind() Kind { return d.kind }

// Latency returns the latency model in effect.
func (d *Device) Latency() Latency { return d.lat }

// Size returns the current capacity of the device in bytes.
func (d *Device) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.data)
}

// SetDelayInjection enables or disables CPU spin delays on every charged
// access and synthetic charge, in addition to the always-on deterministic
// latency accounting.
func (d *Device) SetDelayInjection(on bool) { d.inject.Store(on) }

// Grow extends the device so that it has capacity for at least size bytes.
// Growing is an administrative operation (like plugging in a DIMM) and is
// not charged memory latency.
func (d *Device) Grow(size int) {
	d.lock()
	defer d.unlock()
	if size <= len(d.data) {
		return
	}
	oldLen := len(d.data)
	nd := make([]byte, size)
	copy(nd, d.data)
	d.data = nd
	if d.kind == NVBM {
		nw := make([]uint32, (size+LineSize-1)/LineSize)
		copy(nw, d.wear)
		d.wear = nw
	}
	if d.track.Load() {
		nc := make([]uint32, len(d.wear))
		copy(nc, d.lineCRC)
		for line := len(d.lineCRC); line < len(nc); line++ {
			nc[line] = zeroLineCRC
		}
		d.lineCRC = nc
		// A partial final line gained zero padding; its checksum changes.
		if oldLen%LineSize != 0 && oldLen/LineSize < len(nc) {
			d.lineCRC[oldLen/LineSize] = d.lineChecksumLocked(oldLen / LineSize)
		}
	}
}

// ReadAt copies len(p) bytes starting at offset off into p, charging the
// device's own meter one read of len(p) bytes. Panics with ErrPowerLost
// after an expired power cut.
func (d *Device) ReadAt(off int, p []byte) { d.ReadWith(d.charged.Load(), off, p) }

// ReadWith is ReadAt charging m, a meter of d or Discard.
func (d *Device) ReadWith(m *Meter, off int, p []byte) {
	if d.powerCut.Load() == 0 {
		panic(ErrPowerLost)
	}
	l := d.stripe(m)
	l.RLock()
	if off < 0 || off+len(p) > len(d.data) {
		l.RUnlock()
		panic(fmt.Sprintf("nvbm: read [%d,%d) out of range (size %d)", off, off+len(p), d.Size()))
	}
	copy(p, d.data[off:])
	l.RUnlock()
	m.charge(false, 1, len(p))
}

// ErrPowerLost is the panic value raised by any access to a device whose
// power-cut countdown has expired: at that instant the process is dead.
// Torture harnesses recover() it, discard all volatile state, and restart
// from the device contents.
var ErrPowerLost = fmt.Errorf("nvbm: power lost")

// consumePowerCut spends one write from an armed power-cut countdown,
// panicking with ErrPowerLost once the budget is gone.
func (d *Device) consumePowerCut(off int, p []byte) {
	// CAS loop: a plain load-then-store would let two concurrent writers
	// read the same countdown and lose a decrement, letting more writes
	// land than the torture harness armed.
	for {
		cut := d.powerCut.Load()
		if cut < 0 {
			break
		}
		if cut == 0 {
			// With a torn cut armed, the store in flight at the instant
			// power failed persists a seeded subset of its cache lines
			// (exactly one racing writer wins the tear).
			if d.tornPending.CompareAndSwap(true, false) {
				d.tearWrite(off, p)
			}
			panic(ErrPowerLost)
		}
		if d.powerCut.CompareAndSwap(cut, cut-1) {
			break
		}
	}
}

// WriteAt copies p into the device starting at offset off, charging the
// device's own meter one write of len(p) bytes and bumping wear counters
// for every touched line. With an armed power cut whose countdown has
// expired, the access panics with ErrPowerLost.
func (d *Device) WriteAt(off int, p []byte) { d.write(d.charged.Load(), off, p, false) }

// WriteWith is WriteAt charging m, a meter of d or Discard.
func (d *Device) WriteWith(m *Meter, off int, p []byte) { d.write(m, off, p, false) }

// WriteAtExclusive is WriteAt holding every stripe of the device lock
// exclusively. The default WriteAt holds one stripe shared, which is correct when
// concurrent writers touch disjoint cache LINES; with media tracking on,
// however, every store recomputes the whole per-line CRC shadow, so two
// writers whose byte ranges are disjoint but SHARE a line can publish a
// stale checksum for each other's bytes — false corruption. The arena's
// span stores and bitmap landings use this entry point, so they never
// race a store to a line they share. Latency accounting
// and any injected spin delay happen outside the lock, exactly like
// WriteAt, so exclusivity costs only the data copy.
func (d *Device) WriteAtExclusive(off int, p []byte) { d.write(d.charged.Load(), off, p, true) }

// write is the one store body of WriteAt, WriteWith and WriteAtExclusive,
// which differ only in the meter charged and the lock the copy holds.
func (d *Device) write(m *Meter, off int, p []byte, exclusive bool) {
	d.consumePowerCut(off, p)
	l := d.stripe(m)
	if exclusive {
		d.lock()
	} else {
		l.RLock()
	}
	inRange := off >= 0 && off+len(p) <= len(d.data)
	switch {
	case !inRange:
		// Nothing is stored; the panic waits for the unlock (Size locks).
	case d.kind == NVBM && len(p) > 0 && (d.wearLimit.Load() > 0 || d.track.Load()):
		d.writeLinesLocked(off, p)
	default:
		copy(d.data[off:], p)
		if d.kind == NVBM && len(p) > 0 {
			for line := off / LineSize; line <= (off+len(p)-1)/LineSize; line++ {
				if line < len(d.wear) {
					atomic.AddUint32(&d.wear[line], 1)
				}
			}
		}
	}
	if exclusive {
		d.unlock()
	} else {
		l.RUnlock()
	}
	if !inRange {
		panic(fmt.Sprintf("nvbm: write [%d,%d) out of range (size %d)", off, off+len(p), d.Size()))
	}
	m.charge(true, 1, len(p))
}

// ReadU64 reads a little-endian uint64 at offset off.
func (d *Device) ReadU64(off int) uint64 {
	var b [8]byte
	d.ReadAt(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes v as a little-endian uint64 at offset off.
func (d *Device) WriteU64(off int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.WriteAt(off, b[:])
}

// ReadU32 reads a little-endian uint32 at offset off.
func (d *Device) ReadU32(off int) uint32 {
	var b [4]byte
	d.ReadAt(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes v as a little-endian uint32 at offset off.
func (d *Device) WriteU32(off int, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.WriteAt(off, b[:])
}

// Crash emulates a power failure. A DRAM device loses its contents (they
// are zeroed); an NVBM device retains them. Statistics survive in both
// cases, because they belong to the experiment, not the machine.
func (d *Device) Crash() {
	if d.kind != DRAM {
		return
	}
	d.lock()
	defer d.unlock()
	for i := range d.data {
		d.data[i] = 0
	}
}

// CutPowerAfter arms a power-failure countdown: the next n writes land,
// then every later access panics with ErrPowerLost — the torture knob for
// crash-consistency testing (the process dies at the instant power fails;
// its volatile state is discarded and recovery must proceed from whatever
// subset of writes reached the device). RestorePower disarms.
func (d *Device) CutPowerAfter(n int) {
	if n < 0 {
		panic("nvbm: negative power-cut countdown")
	}
	d.powerCut.Store(int64(n))
}

// RestorePower disarms a power cut (torn or clean); subsequent writes
// land normally.
func (d *Device) RestorePower() {
	d.tornPending.Store(false)
	d.powerCut.Store(-1)
}

// PowerLost reports whether the device is currently dropping writes.
func (d *Device) PowerLost() bool { return d.powerCut.Load() == 0 }

// ChargeReadN charges the device's own meter count independent reads of
// bytesEach bytes (see Meter.ChargeReadN).
func (d *Device) ChargeReadN(count, bytesEach int) { d.charged.Load().ChargeReadN(count, bytesEach) }

// ChargeWriteN charges the device's own meter count independent writes of
// bytesEach bytes.
func (d *Device) ChargeWriteN(count, bytesEach int) { d.charged.Load().ChargeWriteN(count, bytesEach) }

// SetAccounting points the device's own meter at Discard (off) or back at
// the device's (on). Only the single-owner calls that charge the device's
// own meter are affected; a meter taken with Meter charges as before.
// Instrumentation inside this module reads through Discard instead
// (ReadWith); the lifecycle benchmark calls this around opening a second
// arena view of a device it measures.
func (d *Device) SetAccounting(on bool) {
	if on {
		d.charged.Store(d.own)
	} else {
		d.charged.Store(Discard)
	}
}
