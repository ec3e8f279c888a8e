package nvbm

import (
	"sync"
	"sync/atomic"
)

// Meter collects the access counts, bytes and modeled latency charged to
// it. One caller owns a meter, so only that caller adds to its counters and
// no two goroutines contend for them. A device owns one meter itself, which
// its single-owner callers charge through ReadAt, WriteAt, ChargeReadN and
// ChargeWriteN; a concurrent reader takes its own with Device.Meter and
// charges it through ReadWith, WriteWith and the meter's ChargeReadN.
//
// Every meter of a device stays registered with it for the device's life,
// and Device.Stats sums their counters, so the device total is exact at
// every instant. Release hands a meter back for reuse, which bounds the
// number of meters by the peak number of concurrent owners.
type Meter struct {
	reads      atomic.Uint64
	writes     atomic.Uint64
	readBytes  atomic.Uint64
	writeBytes atomic.Uint64
	modeledNs  atomic.Uint64

	dev  *Device // nil for Discard
	next *Meter  // the device's list of released meters, under its freeMu
	base Stats   // the counters when the owner took the meter

	// mu is the device lock stripe the owner's accesses hold shared (see
	// Device.stripe). The meter is 128 bytes, which Go's allocator keeps
	// 64-byte aligned, so no two owners share a cache line, lock included.
	mu sync.RWMutex
}

// Discard is the meter of instrumentation walks: a charge to it is
// dropped and spins no injected delay, so observing an experiment does not
// perturb the counts it observes. It belongs to no device.
var Discard = new(Meter)

// Meter returns a meter of d for one owner, reusing a released one when
// there is one. Its Stats start at zero.
func (d *Device) Meter() *Meter {
	d.freeMu.Lock()
	m := d.released
	if m != nil {
		d.released, m.next = m.next, nil
	}
	d.freeMu.Unlock()
	if m == nil {
		m = &Meter{dev: d}
		d.mu.Lock()
		d.meters = append(d.meters, m)
		d.mu.Unlock()
	}
	m.base = m.counts()
	return m
}

// stripe returns the lock an access charged to m holds shared: m's own
// for a meter taken with Meter, so that owners on distinct meters share no
// lock word, and the device's for its own meter and Discard. Growth and
// exclusive stores take every stripe (lock).
func (d *Device) stripe(m *Meter) *sync.RWMutex {
	if m.dev == d && m != d.own {
		return &m.mu
	}
	return &d.mu
}

// lock takes every stripe of d exclusively: the device lock, which also
// guards the meter list, then each meter's in registration order.
func (d *Device) lock() {
	d.mu.Lock()
	for _, m := range d.meters {
		if m != d.own {
			m.mu.Lock()
		}
	}
}

// unlock releases what lock took.
func (d *Device) unlock() {
	for _, m := range d.meters {
		if m != d.own {
			m.mu.Unlock()
		}
	}
	d.mu.Unlock()
}

// Release hands m back to its device for reuse. Its counts stay in the
// device's total; the owner must not charge it afterwards.
func (m *Meter) Release() {
	d := m.dev
	if d == nil || m == d.own {
		panic("nvbm: Release of a meter no caller took")
	}
	d.freeMu.Lock()
	m.next = d.released
	d.released = m
	d.freeMu.Unlock()
}

// Stats returns what was charged to m since its owner took it.
func (m *Meter) Stats() Stats { return m.counts().Sub(m.base) }

// counts reads m's cumulative counters.
func (m *Meter) counts() Stats {
	s := Stats{
		Reads:      m.reads.Load(),
		Writes:     m.writes.Load(),
		ReadBytes:  m.readBytes.Load(),
		WriteBytes: m.writeBytes.Load(),
		ModeledNs:  m.modeledNs.Load(),
	}
	if m.dev != nil {
		s.Kind = m.dev.kind
	}
	return s
}

// ChargeReadN charges m count independent reads of bytesEach bytes, for
// I/O whose payload is tracked elsewhere (a traversal answered from a
// host-side index, B-tree pages held in a volatile cache).
func (m *Meter) ChargeReadN(count, bytesEach int) { m.charge(false, count, bytesEach) }

// ChargeWriteN charges m count independent writes of bytesEach bytes.
func (m *Meter) ChargeWriteN(count, bytesEach int) { m.charge(true, count, bytesEach) }

// charge is the one charge body of every access and synthetic charge: it
// adds count accesses of bytesEach bytes to m, spins their modeled
// latency when the device injects delays, and returns their modeled
// nanoseconds, 0 for Discard.
func (m *Meter) charge(write bool, count, bytesEach int) uint64 {
	if count <= 0 || m == Discard {
		return 0
	}
	n, b := uint64(count), uint64(count*bytesEach)
	var ns uint64
	if write {
		ns = n * m.dev.lat.WriteNanos(bytesEach)
		m.writes.Add(n)
		m.writeBytes.Add(b)
	} else {
		ns = n * m.dev.lat.ReadNanos(bytesEach)
		m.reads.Add(n)
		m.readBytes.Add(b)
	}
	m.modeledNs.Add(ns)
	if m.dev.inject.Load() {
		spin(ns)
	}
	return ns
}
