package nvbm

import (
	"bytes"
	"testing"
	"unsafe"
)

// The device total is the sum of its meters, a released meter's counts
// stay in it, and a reused meter starts at zero.
func TestMetersSumIntoDevice(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	buf := make([]byte, LineSize)
	d.WriteAt(0, buf)
	a, b := d.Meter(), d.Meter()
	d.ReadWith(a, 0, buf)
	d.WriteWith(b, LineSize, buf)
	b.ChargeReadN(3, 8)
	if s := a.Stats(); s.Reads != 1 || s.Writes != 0 || s.ReadBytes != LineSize || s.Kind != NVBM {
		t.Errorf("meter a = %+v", s)
	}
	if s := b.Stats(); s.Reads != 3 || s.Writes != 1 || s.ReadBytes != 24 {
		t.Errorf("meter b = %+v", s)
	}
	lat := d.Latency()
	want := Stats{Kind: NVBM, Reads: 4, Writes: 2, ReadBytes: LineSize + 24, WriteBytes: 2 * LineSize,
		ModeledNs: 2*lat.WriteNanos(LineSize) + lat.ReadNanos(LineSize) + 3*lat.ReadNanos(8)}
	if got := d.Stats(); got != want {
		t.Fatalf("device = %+v, want %+v", got, want)
	}
	a.Release()
	if got := d.Stats(); got != want {
		t.Fatalf("release moved the device total: %+v, want %+v", got, want)
	}
	c := d.Meter()
	if c != a {
		t.Error("a released meter was not reused")
	}
	if s := c.Stats(); s.Accesses() != 0 || s.ModeledNs != 0 {
		t.Errorf("reused meter starts at %+v", s)
	}
	if n := len(d.meters); n != 3 {
		t.Errorf("%d meters registered, want 3 (own, a, b)", n)
	}
}

// Discard moves data but charges nothing; SetAccounting(false) sends only
// the device's own meter there.
func TestDiscardChargesNothing(t *testing.T) {
	d := New(NVBM, LineSize)
	want := bytes.Repeat([]byte{7}, 8)
	d.WriteWith(Discard, 0, want)
	got := make([]byte, 8)
	d.ReadWith(Discard, 0, got)
	Discard.ChargeReadN(5, 8)
	Discard.ChargeWriteN(5, 8)
	if !bytes.Equal(got, want) {
		t.Fatalf("read %v through Discard, want %v", got, want)
	}
	if s := d.Stats(); s.Accesses() != 0 || s.ModeledNs != 0 {
		t.Errorf("Discard charged the device: %+v", s)
	}
	if s := Discard.Stats(); s != (Stats{}) {
		t.Errorf("Discard holds %+v", s)
	}
	if w := d.Wear().TotalWear; w != 1 {
		t.Errorf("wear = %d, want 1: wear is fault-model state, not metering", w)
	}

	m := d.Meter()
	d.SetAccounting(false)
	d.ReadAt(0, got)
	d.ReadWith(m, 0, got)
	d.SetAccounting(true)
	d.ReadAt(0, got)
	if s := d.Stats(); s.Reads != 2 || m.Stats().Reads != 1 {
		t.Errorf("device reads = %d, meter reads = %d, want 2 and 1", s.Reads, m.Stats().Reads)
	}
}

// Neither the device's own meter nor Discard can be released.
func TestReleaseRejectsUntakenMeters(t *testing.T) {
	d := New(DRAM, LineSize)
	for name, m := range map[string]*Meter{"own": d.own, "Discard": Discard} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release of the %s meter did not panic", name)
				}
			}()
			m.Release()
		}()
	}
}

// A meter fills two whole cache lines, so two owners' counters never share
// one.
func TestMeterSize(t *testing.T) {
	if n := unsafe.Sizeof(Meter{}); n != 128 {
		t.Errorf("Meter is %d bytes, want 128", n)
	}
}
