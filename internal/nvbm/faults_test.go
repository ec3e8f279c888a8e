package nvbm

import (
	"bytes"
	"testing"
)

// writeExpectingPowerLoss performs the write and reports whether it died
// to ErrPowerLost instead of landing.
func writeExpectingPowerLoss(d *Device, off int, p []byte) (died bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrPowerLost {
				panic(r)
			}
			died = true
		}
	}()
	d.WriteAt(off, p)
	return false
}

func TestTornCutReproducible(t *testing.T) {
	const lines = 8
	payload := bytes.Repeat([]byte{0xAA}, lines*LineSize)
	run := func(seed int64) []byte {
		d := New(NVBM, lines*LineSize)
		d.CutPowerAfterTorn(0, seed)
		if !writeExpectingPowerLoss(d, 0, payload) {
			t.Fatal("armed torn cut did not fire")
		}
		return d.Bytes()
	}
	sawPartial := false
	for seed := int64(0); seed < 20; seed++ {
		a, b := run(seed), run(seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two torn runs persisted different bytes", seed)
		}
		landed := 0
		for line := 0; line < lines; line++ {
			if a[line*LineSize] == 0xAA {
				landed++
			}
		}
		if landed > 0 && landed < lines {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("no seed in [0,20) produced a partial tear; the tear is not doing anything")
	}
}

func TestTornWriteLineGranular(t *testing.T) {
	const lines = 16
	d := New(NVBM, lines*LineSize)
	d.EnableMediaTracking()
	payload := bytes.Repeat([]byte{0x5C}, lines*LineSize)
	d.CutPowerAfterTorn(0, 7)
	if !writeExpectingPowerLoss(d, 0, payload) {
		t.Fatal("armed torn cut did not fire")
	}
	// Each line persisted entirely or not at all: no mixed line.
	b := d.Bytes()
	landed := 0
	for line := 0; line < lines; line++ {
		chunk := b[line*LineSize : (line+1)*LineSize]
		switch {
		case bytes.Equal(chunk, payload[:LineSize]):
			landed++
		case bytes.Equal(chunk, make([]byte, LineSize)):
		default:
			t.Fatalf("line %d is a mix of old and new bytes; tearing must be line-granular", line)
		}
	}
	// A torn write is a crash artifact, not media damage: the CRC shadow
	// was updated for the lines that landed, so nothing reads as corrupt.
	if bad := d.CorruptLines(); len(bad) != 0 {
		t.Errorf("torn write left CRC-corrupt lines %v", bad)
	}
	fs := d.FaultStats()
	if fs.TornWrites != 1 {
		t.Errorf("TornWrites = %d, want 1", fs.TornWrites)
	}
	if fs.TornLinesDropped != uint64(lines-landed) {
		t.Errorf("TornLinesDropped = %d, want %d", fs.TornLinesDropped, lines-landed)
	}
}

func TestTornCutOnlyFirstWriterTears(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	d.CutPowerAfterTorn(0, 3)
	if !writeExpectingPowerLoss(d, 0, bytes.Repeat([]byte{1}, LineSize)) {
		t.Fatal("first write should die")
	}
	if !writeExpectingPowerLoss(d, LineSize, bytes.Repeat([]byte{2}, LineSize)) {
		t.Fatal("second write should die too")
	}
	// Only the first post-cut write tears; later ones fail cleanly.
	if fs := d.FaultStats(); fs.TornWrites != 1 {
		t.Errorf("TornWrites = %d, want 1", fs.TornWrites)
	}
	if got := d.Bytes()[LineSize]; got != 0 {
		t.Errorf("second write persisted bytes after power loss")
	}
}

func TestFlipBitDetection(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	d.WriteAt(0, bytes.Repeat([]byte{0x11}, 4*LineSize))

	// Tracking off: corruption is invisible.
	if !d.FlipBit(5, 3) {
		t.Fatal("FlipBit in range returned false")
	}
	if d.RangeCorrupt(0, 4*LineSize) {
		t.Error("RangeCorrupt must be false with tracking off")
	}
	d.FlipBit(5, 3) // undo

	d.EnableMediaTracking()
	if d.RangeCorrupt(0, 4*LineSize) {
		t.Error("clean device reads corrupt")
	}
	off := 2*LineSize + 17
	d.FlipBit(off, 0)
	if !d.RangeCorrupt(off, 1) {
		t.Error("flipped bit not detected at its offset")
	}
	if d.RangeCorrupt(0, LineSize) {
		t.Error("unflipped line reads corrupt")
	}
	if got := d.CorruptLines(); len(got) != 1 || got[0] != 2 {
		t.Errorf("CorruptLines = %v, want [2]", got)
	}
	// A legitimate overwrite of the damaged line refreshes the shadow.
	d.WriteAt(2*LineSize, bytes.Repeat([]byte{0x22}, LineSize))
	if len(d.CorruptLines()) != 0 {
		t.Error("overwrite did not clear the corrupt state")
	}
	if d.FlipBit(4*LineSize, 0) {
		t.Error("FlipBit out of range returned true")
	}
}

func TestScrubRepairsFromSource(t *testing.T) {
	const lines = 6
	d := New(NVBM, lines*LineSize)
	d.EnableMediaTracking()
	want := bytes.Repeat([]byte{0x3C}, lines*LineSize)
	d.WriteAt(0, want)
	clean := d.Bytes()

	d.FlipBit(0*LineSize+1, 2)
	d.FlipBit(3*LineSize+40, 6)
	d.FlipBit(5*LineSize+63, 7)

	rep := d.Scrub(func(off int, p []byte) bool {
		copy(p, clean[off:off+len(p)])
		return true
	})
	if rep.LinesScanned != lines {
		t.Errorf("scanned %d lines, want %d", rep.LinesScanned, lines)
	}
	if rep.Corrupt != 3 || rep.Repaired != 3 || rep.Unrepairable != 0 {
		t.Errorf("scrub = corrupt %d repaired %d unrepairable %d, want 3/3/0",
			rep.Corrupt, rep.Repaired, rep.Unrepairable)
	}
	if rep.ModeledNs == 0 {
		t.Error("scrub pass charged no modeled time")
	}
	if !bytes.Equal(d.Bytes(), clean) {
		t.Error("repaired contents differ from the source")
	}
	if len(d.CorruptLines()) != 0 {
		t.Error("corrupt lines remain after repair")
	}
	fs := d.FaultStats()
	if fs.CorruptFound != 3 || fs.LinesRepaired != 3 {
		t.Errorf("FaultStats corrupt/repaired = %d/%d, want 3/3", fs.CorruptFound, fs.LinesRepaired)
	}
}

func TestScrubWithoutSourceDetectsOnly(t *testing.T) {
	d := New(NVBM, 2*LineSize)
	d.EnableMediaTracking()
	d.WriteAt(0, bytes.Repeat([]byte{9}, 2*LineSize))
	d.FlipBit(3, 0)
	rep := d.Scrub(nil)
	if rep.Corrupt != 1 || rep.Repaired != 0 || rep.Unrepairable != 1 {
		t.Errorf("scrub = corrupt %d repaired %d unrepairable %d, want 1/0/1",
			rep.Corrupt, rep.Repaired, rep.Unrepairable)
	}
	if len(d.CorruptLines()) != 1 {
		t.Error("sourceless scrub must leave the damage in place")
	}
}

func TestWearOutStuckLineAndRemap(t *testing.T) {
	const limit = 4
	d := New(NVBM, 2*LineSize)
	d.EnableMediaTracking()
	d.SetWearLimit(limit)
	d.SetSpareLines(1)

	line0 := bytes.Repeat([]byte{1}, LineSize)
	for i := 0; i < limit; i++ {
		line0[0] = byte(i + 1)
		d.WriteAt(0, line0)
	}
	if got := d.StuckLines(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("StuckLines = %v, want [0] after %d writes", got, limit)
	}
	// The worn-out cell silently drops the store.
	line0[0] = 0xEE
	d.WriteAt(0, line0)
	if got := d.Bytes()[0]; got != limit {
		t.Fatalf("stuck line absorbed a write: byte0 = %#x, want %#x", got, limit)
	}
	if fs := d.FaultStats(); fs.StuckWrites != 1 {
		t.Errorf("StuckWrites = %d, want 1", fs.StuckWrites)
	}

	// Scrub remaps the line onto the spare and refreshes its contents from
	// the commit-consistent source, healing the dropped store.
	rep := d.Scrub(func(off int, p []byte) bool {
		if off == 0 {
			copy(p, line0)
			return true
		}
		return false
	})
	if rep.Remapped != 1 || rep.SparesLeft != 0 || rep.Unrepairable != 0 {
		t.Fatalf("scrub = remapped %d sparesLeft %d unrepairable %d, want 1/0/0",
			rep.Remapped, rep.SparesLeft, rep.Unrepairable)
	}
	if got := d.Bytes()[0]; got != 0xEE {
		t.Errorf("remap did not refresh contents: byte0 = %#x, want 0xEE", got)
	}
	if got := d.WearMax(0, LineSize); got >= limit {
		t.Errorf("remapped line wear = %d, want < %d", got, limit)
	}
	// Writes land again, and with no spares left a re-worn line is stuck
	// for good.
	line0[0] = 0x77
	d.WriteAt(0, line0)
	if got := d.Bytes()[0]; got != 0x77 {
		t.Error("write to remapped line did not land")
	}
}

// TestRemapWornKeepsContents: a sourceless remap unsticks a worn-out line
// without touching its contents, and leaves a corrupt line alone.
func TestRemapWornKeepsContents(t *testing.T) {
	const limit = 2
	d := New(NVBM, 3*LineSize)
	d.EnableMediaTracking()
	d.SetWearLimit(limit)
	d.SetSpareLines(1)
	for i := 0; i < limit; i++ {
		d.WriteAt(0, bytes.Repeat([]byte{byte(i + 1)}, LineSize))
	}
	d.WriteAt(0, bytes.Repeat([]byte{0xEE}, LineSize)) // dropped
	d.WriteAt(LineSize, []byte{5})
	d.FlipBit(LineSize, 1)
	if n := d.RemapWorn(); n != 1 {
		t.Fatalf("RemapWorn = %d, want 1", n)
	}
	if got := d.Bytes()[0]; got != limit {
		t.Errorf("remap changed contents: byte0 = %#x, want %#x", got, limit)
	}
	if got := d.CorruptLines(); len(got) != 1 || got[0] != 1 {
		t.Errorf("CorruptLines = %v, want [1]: a remap repairs nothing", got)
	}
	if fs := d.FaultStats(); fs.LinesRemapped != 1 || fs.SparesLeft != 0 {
		t.Errorf("remapped %d, spares left %d, want 1/0", fs.LinesRemapped, fs.SparesLeft)
	}
	d.WriteAt(0, []byte{0x77})
	if got := d.Bytes()[0]; got != 0x77 {
		t.Error("write to the remapped line did not land")
	}
	// With the spare pool empty, a re-worn line stays stuck.
	d.WriteAt(0, []byte{0x78})
	if n := d.RemapWorn(); n != 0 || len(d.StuckLines()) != 1 {
		t.Errorf("RemapWorn with no spares = %d, stuck %v; want 0 and line 0 stuck", n, d.StuckLines())
	}
}

// TestClonePreservesFaultState is the regression test for replica clones
// silently resetting endurance and media state: wear counters, the CRC
// shadow (including latent damage), the wear limit, and the spare pool
// must all carry over — after a failover the clone IS the device.
func TestClonePreservesFaultState(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	d.EnableMediaTracking()
	d.SetWearLimit(1000)
	d.SetSpareLines(7)
	d.WriteAt(0, bytes.Repeat([]byte{5}, 4*LineSize))
	d.WriteAt(0, bytes.Repeat([]byte{6}, LineSize))
	d.FlipBit(2*LineSize, 1) // latent damage the clone must still see

	c := d.Clone()
	if !c.MediaTracking() {
		t.Error("clone lost media tracking")
	}
	if got, want := c.Wear(), d.Wear(); got != want {
		t.Errorf("clone wear = %+v, want %+v", got, want)
	}
	if c.WearLimit() != 1000 {
		t.Errorf("clone wear limit = %d, want 1000", c.WearLimit())
	}
	if c.SpareLines() != 7 {
		t.Errorf("clone spares = %d, want 7", c.SpareLines())
	}
	if got := c.CorruptLines(); len(got) != 1 || got[0] != 2 {
		t.Errorf("clone CorruptLines = %v, want [2]", got)
	}
	// Independence: damaging the clone leaves the original alone.
	c.FlipBit(0, 0)
	if len(d.CorruptLines()) != 1 {
		t.Error("corrupting the clone affected the original")
	}
}

func TestDiffApplyLinesRoundTrip(t *testing.T) {
	a := New(NVBM, 6*LineSize)
	b := New(NVBM, 0)
	a.WriteAt(LineSize, bytes.Repeat([]byte{0xAB}, 2*LineSize))
	a.WriteAt(5*LineSize, []byte{1, 2, 3})

	lines := a.DiffLines(b)
	if want := []int{1, 2, 5}; len(lines) != len(want) || lines[0] != 1 || lines[1] != 2 || lines[2] != 5 {
		t.Fatalf("DiffLines = %v, want %v", lines, want)
	}
	var payload []byte
	for _, line := range lines {
		payload = append(payload, a.Bytes()[line*LineSize:(line+1)*LineSize]...)
	}
	b.ApplyLines(a.Size(), lines, payload)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("contents differ after ApplyLines")
	}
	if got := a.DiffLines(b); len(got) != 0 {
		t.Fatalf("DiffLines after apply = %v, want empty", got)
	}
}

func TestGrowExtendsCRCShadow(t *testing.T) {
	d := New(NVBM, LineSize+8) // partial final line
	d.EnableMediaTracking()
	d.WriteAt(LineSize, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	d.Grow(4 * LineSize)
	// The partial boundary line was re-checksummed over its full extent
	// and the new zero lines got the zero-line CRC: nothing reads corrupt.
	if bad := d.CorruptLines(); len(bad) != 0 {
		t.Fatalf("grow left CRC-corrupt lines %v", bad)
	}
	d.WriteAt(3*LineSize, bytes.Repeat([]byte{9}, LineSize))
	if bad := d.CorruptLines(); len(bad) != 0 {
		t.Fatalf("write into grown capacity left corrupt lines %v", bad)
	}
	d.FlipBit(3*LineSize+1, 4)
	if got := d.CorruptLines(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("CorruptLines = %v, want [3]", got)
	}
}
