package nvbm

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	if DRAM.String() != "DRAM" {
		t.Errorf("DRAM.String() = %q", DRAM.String())
	}
	if NVBM.String() != "NVBM" {
		t.Errorf("NVBM.String() = %q", NVBM.String())
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(NVBM, 256)
	msg := []byte("persistent octants live here")
	d.WriteAt(10, msg)
	got := make([]byte, len(msg))
	d.ReadAt(10, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: got %q want %q", got, msg)
	}
}

func TestWordHelpers(t *testing.T) {
	d := New(NVBM, 64)
	d.WriteU64(0, 0xdeadbeefcafef00d)
	if got := d.ReadU64(0); got != 0xdeadbeefcafef00d {
		t.Errorf("ReadU64 = %#x", got)
	}
	d.WriteU32(8, 0x12345678)
	if got := d.ReadU32(8); got != 0x12345678 {
		t.Errorf("ReadU32 = %#x", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := New(DRAM, 16)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"read past end", func() { d.ReadAt(10, make([]byte, 10)) }},
		{"write past end", func() { d.WriteAt(16, []byte{1}) }},
		{"negative read", func() { d.ReadAt(-1, make([]byte, 1)) }},
		{"negative write", func() { d.WriteAt(-1, []byte{1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestGrowPreservesContents(t *testing.T) {
	d := New(NVBM, 8)
	d.WriteAt(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	d.Grow(1024)
	if d.Size() != 1024 {
		t.Fatalf("Size = %d after Grow(1024)", d.Size())
	}
	got := make([]byte, 8)
	d.ReadAt(0, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("contents lost on grow: %v", got)
	}
	// Growing smaller is a no-op.
	d.Grow(100)
	if d.Size() != 1024 {
		t.Errorf("Grow shrank the device to %d", d.Size())
	}
}

func TestStatsAccounting(t *testing.T) {
	d := New(NVBM, 4096)
	d.WriteAt(0, make([]byte, 64))   // one line: 150 ns
	d.WriteAt(64, make([]byte, 128)) // two lines: 300 ns
	d.ReadAt(0, make([]byte, 64))    // one line: 100 ns
	s := d.Stats()
	if s.Writes != 2 || s.Reads != 1 {
		t.Fatalf("ops: %d writes %d reads", s.Writes, s.Reads)
	}
	if s.WriteBytes != 192 || s.ReadBytes != 64 {
		t.Fatalf("bytes: %d written %d read", s.WriteBytes, s.ReadBytes)
	}
	want := uint64(150 + 300 + 100)
	if s.ModeledNs != want {
		t.Errorf("ModeledNs = %d, want %d", s.ModeledNs, want)
	}
	if s.Accesses() != 3 {
		t.Errorf("Accesses = %d", s.Accesses())
	}
	if wf := s.WriteFraction(); wf < 0.66 || wf > 0.67 {
		t.Errorf("WriteFraction = %v", wf)
	}
	m := d.Meter()
	if m.Stats().Accesses() != 0 {
		t.Error("a fresh meter starts with charges")
	}
	m.Release()
}

func TestStatsSubAdd(t *testing.T) {
	d := New(DRAM, 128)
	d.WriteAt(0, make([]byte, 8))
	before := d.Stats()
	d.WriteAt(0, make([]byte, 8))
	d.ReadAt(0, make([]byte, 8))
	delta := d.Stats().Sub(before)
	if delta.Writes != 1 || delta.Reads != 1 {
		t.Errorf("delta = %+v", delta)
	}
	sum := before.Add(delta)
	if sum.Writes != d.Stats().Writes {
		t.Errorf("Add mismatch: %+v vs %+v", sum, d.Stats())
	}
	if s := d.Stats().String(); s == "" {
		t.Error("empty Stats.String")
	}
}

func TestWriteFractionEmpty(t *testing.T) {
	var s Stats
	if s.WriteFraction() != 0 {
		t.Error("WriteFraction of empty stats should be 0")
	}
}

func TestLatencyModel(t *testing.T) {
	lat := DefaultLatency(NVBM)
	if lat.ReadNanos(1) != NVBMReadNs {
		t.Errorf("1-byte read = %d", lat.ReadNanos(1))
	}
	if lat.ReadNanos(64) != NVBMReadNs {
		t.Errorf("64-byte read = %d", lat.ReadNanos(64))
	}
	if lat.ReadNanos(65) != 2*NVBMReadNs {
		t.Errorf("65-byte read = %d", lat.ReadNanos(65))
	}
	if lat.WriteNanos(4096) != NVBMWriteNs*64 {
		t.Errorf("page write = %d", lat.WriteNanos(4096))
	}
	dl := DefaultLatency(DRAM)
	if dl.WriteNanos(64) != DRAMWriteNs {
		t.Errorf("DRAM write = %d", dl.WriteNanos(64))
	}
}

func TestNVBMWriteSlowerThanDRAM(t *testing.T) {
	// The core premise of the paper: NVBM writes are 2.5x DRAM writes.
	n := DefaultLatency(NVBM)
	dr := DefaultLatency(DRAM)
	if float64(n.WriteNanos(64))/float64(dr.WriteNanos(64)) != 2.5 {
		t.Errorf("NVBM/DRAM write ratio = %v, want 2.5",
			float64(n.WriteNanos(64))/float64(dr.WriteNanos(64)))
	}
}

func TestCrashSemantics(t *testing.T) {
	dram := New(DRAM, 32)
	nv := New(NVBM, 32)
	payload := []byte("state")
	dram.WriteAt(0, payload)
	nv.WriteAt(0, payload)
	dram.Crash()
	nv.Crash()
	got := make([]byte, len(payload))
	dram.ReadAt(0, got)
	if !bytes.Equal(got, make([]byte, len(payload))) {
		t.Errorf("DRAM survived crash: %q", got)
	}
	nv.ReadAt(0, got)
	if !bytes.Equal(got, payload) {
		t.Errorf("NVBM lost data on crash: %q", got)
	}
}

func TestWearTracking(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	for i := 0; i < 10; i++ {
		d.WriteAt(0, make([]byte, 8)) // line 0, ten times
	}
	d.WriteAt(LineSize, make([]byte, 8)) // line 1, once
	ws := d.Wear()
	if ws.MaxWear != 10 {
		t.Errorf("MaxWear = %d, want 10", ws.MaxWear)
	}
	if ws.TotalWear != 11 {
		t.Errorf("TotalWear = %d, want 11", ws.TotalWear)
	}
	if ws.Lines != 4 {
		t.Errorf("Lines = %d, want 4", ws.Lines)
	}
	if mw := ws.MeanWear(); mw != 11.0/4 {
		t.Errorf("MeanWear = %v", mw)
	}
	if ws.WearImbalance() <= 1 {
		t.Errorf("WearImbalance = %v, want > 1 for hot-spotted device", ws.WearImbalance())
	}
}

func TestWearSpanningLines(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	// A write covering lines 0..2 must wear all three.
	d.WriteAt(0, make([]byte, 3*LineSize))
	ws := d.Wear()
	if ws.TotalWear != 3 {
		t.Errorf("TotalWear = %d, want 3", ws.TotalWear)
	}
}

func TestDRAMHasNoWear(t *testing.T) {
	d := New(DRAM, 256)
	d.WriteAt(0, make([]byte, 64))
	ws := d.Wear()
	if ws.Lines != 0 || ws.TotalWear != 0 {
		t.Errorf("DRAM wear tracked: %+v", ws)
	}
	if ws.MeanWear() != 0 || ws.WearImbalance() != 0 {
		t.Errorf("DRAM wear stats nonzero: %+v", ws)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := New(NVBM, 300)
	d.WriteAt(7, []byte("octree image"))
	var buf bytes.Buffer
	if err := d.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New(NVBM, 0)
	if err := d2.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.Size() != 300 {
		t.Fatalf("restored size = %d", d2.Size())
	}
	got := make([]byte, 12)
	d2.ReadAt(7, got)
	if string(got) != "octree image" {
		t.Errorf("restored contents = %q", got)
	}
}

func TestSnapshotRejectsDRAM(t *testing.T) {
	d := New(DRAM, 16)
	if err := d.SnapshotTo(&bytes.Buffer{}); err == nil {
		t.Error("snapshotting DRAM should fail")
	}
}

func TestRestoreRejectsCorruptImage(t *testing.T) {
	d := New(NVBM, 128)
	d.WriteAt(0, []byte("payload"))
	var buf bytes.Buffer
	if err := d.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, img...)
		bad[0] ^= 0xff
		if err := New(NVBM, 0).RestoreFrom(bytes.NewReader(bad)); err == nil {
			t.Error("expected magic error")
		}
	})
	t.Run("bad crc", func(t *testing.T) {
		bad := append([]byte{}, img...)
		bad[20] ^= 0xff // inside data
		if err := New(NVBM, 0).RestoreFrom(bytes.NewReader(bad)); err == nil {
			t.Error("expected checksum error")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := New(NVBM, 0).RestoreFrom(bytes.NewReader(img[:10])); err == nil {
			t.Error("expected truncation error")
		}
	})
}

func TestPersistOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "region.img")
	d := New(NVBM, 128)
	d.WriteU64(0, 42)
	if err := d.PersistFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.ReadU64(0); got != 42 {
		t.Errorf("ReadU64 after reopen = %d", got)
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope.img")); err == nil {
		t.Error("expected error opening missing image")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := New(NVBM, 64)
	d.WriteU64(0, 7)
	c := d.Clone()
	d.WriteU64(0, 8)
	if c.ReadU64(0) != 7 {
		t.Error("clone shares storage with original")
	}
	if c.Stats().Reads == 0 {
		t.Skip("clone read accounted") // the read above counts on the clone
	}
}

func TestBytesCopy(t *testing.T) {
	d := New(NVBM, 16)
	d.WriteAt(0, []byte{9})
	b := d.Bytes()
	b[0] = 1
	got := make([]byte, 1)
	d.ReadAt(0, got)
	if got[0] != 9 {
		t.Error("Bytes returned aliasing slice")
	}
}

func TestDelayInjectionToggle(t *testing.T) {
	d := New(NVBM, 64)
	if d.inject.Load() {
		t.Error("injection on by default")
	}
	d.SetDelayInjection(true)
	if !d.inject.Load() {
		t.Error("SetDelayInjection(true) did not stick")
	}
	d.WriteAt(0, make([]byte, 8)) // exercise the spin path
	d.SetDelayInjection(false)
}

// Property: any sequence of in-range writes followed by reads returns the
// written data (the device behaves like memory).
func TestQuickMemorySemantics(t *testing.T) {
	d := New(NVBM, 1024)
	f := func(off uint16, val []byte) bool {
		if len(val) == 0 {
			return true
		}
		o := int(off) % (1024 - len(val)%1024)
		if o+len(val) > 1024 {
			o = 1024 - len(val)
		}
		if o < 0 {
			return true
		}
		d.WriteAt(o, val)
		got := make([]byte, len(val))
		d.ReadAt(o, got)
		return bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: snapshot/restore is the identity on device contents.
func TestQuickSnapshotIdentity(t *testing.T) {
	f := func(data []byte) bool {
		d := New(NVBM, len(data))
		if len(data) > 0 {
			d.WriteAt(0, data)
		}
		var buf bytes.Buffer
		if err := d.SnapshotTo(&buf); err != nil {
			return false
		}
		d2 := New(NVBM, 0)
		if err := d2.RestoreFrom(&buf); err != nil {
			return false
		}
		return bytes.Equal(d2.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPowerCutSemantics(t *testing.T) {
	d := New(NVBM, 256)
	d.CutPowerAfter(2)
	d.WriteAt(0, []byte{1}) // lands
	d.WriteAt(1, []byte{2}) // lands
	if d.PowerLost() != true {
		t.Error("countdown expired but PowerLost() false")
	}
	func() {
		defer func() {
			if r := recover(); r != ErrPowerLost {
				t.Errorf("expected ErrPowerLost, got %v", r)
			}
		}()
		d.WriteAt(2, []byte{3}) // power is out: the process dies here
	}()
	func() {
		defer func() {
			if r := recover(); r != ErrPowerLost {
				t.Errorf("read after power loss: got %v", r)
			}
		}()
		d.ReadAt(0, make([]byte, 1))
	}()
	// Power restored (a new process maps the region): the first two
	// writes are durable, the third never happened.
	d.RestorePower()
	got := make([]byte, 3)
	d.ReadAt(0, got)
	if got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("surviving bytes = %v, want [1 2 0]", got)
	}
}

func TestCutPowerAfterNegativePanics(t *testing.T) {
	d := New(NVBM, 16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.CutPowerAfter(-1)
}

func TestChargeNBulk(t *testing.T) {
	d := New(NVBM, 0)
	d.ChargeReadN(10, 64)
	d.ChargeWriteN(5, 64)
	s := d.Stats()
	if s.Reads != 10 || s.Writes != 5 {
		t.Errorf("ops = %d/%d", s.Reads, s.Writes)
	}
	if s.ModeledNs != 10*NVBMReadNs+5*NVBMWriteNs {
		t.Errorf("modeled = %d", s.ModeledNs)
	}
	d.ChargeReadN(0, 64)
	d.ChargeWriteN(-1, 64)
	if d.Stats().Reads != 10 {
		t.Error("zero/negative counts charged")
	}
}

func TestEnduranceReport(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	for i := 0; i < 100; i++ {
		d.WriteAt(0, make([]byte, 8))
	}
	rep := d.EstimateLifetime(10, 1e6)
	if rep.MaxWear != 100 {
		t.Errorf("MaxWear = %d", rep.MaxWear)
	}
	// 10 writes/step to the hot line, 1e6 budget -> 1e5 steps.
	if rep.LifetimeSteps != 1e5 {
		t.Errorf("LifetimeSteps = %v", rep.LifetimeSteps)
	}
	if rep.Imbalance <= 1 {
		t.Errorf("Imbalance = %v", rep.Imbalance)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestEnduranceUnwornDevice(t *testing.T) {
	d := New(NVBM, 256)
	rep := d.EstimateLifetime(5, 1e6)
	if !math.IsInf(rep.LifetimeSteps, 1) {
		t.Errorf("unworn device lifetime = %v", rep.LifetimeSteps)
	}
}

func TestDelayInjectionWallClock(t *testing.T) {
	// With injection enabled, wall-clock time must cover at least the
	// modeled latency — the paper's emulation methodology (§5.1).
	d := New(NVBM, 4096)
	d.SetDelayInjection(true)
	defer d.SetDelayInjection(false)
	const writes = 2000
	buf := make([]byte, 64)
	start := time.Now()
	for i := 0; i < writes; i++ {
		d.WriteAt(0, buf)
	}
	elapsed := time.Since(start)
	modeled := time.Duration(d.Stats().ModeledNs)
	if elapsed < modeled {
		t.Errorf("wall %v < modeled %v: injection not delaying", elapsed, modeled)
	}
}
