package nvbm

import "testing"

// A delta against a snapshot of a busier device must clamp to zero, not
// wrap to ~2^64: the telemetry layer differences snapshots blindly.
func TestStatsSubSaturates(t *testing.T) {
	d := New(NVBM, LineSize)
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		d.WriteAt(0, buf)
		d.ReadAt(0, buf)
	}
	before := d.Stats()
	fresh := New(NVBM, LineSize)
	fresh.WriteAt(0, buf)
	delta := fresh.Stats().Sub(before)
	if delta.Reads != 0 || delta.ReadBytes != 0 || delta.ModeledNs != 0 {
		t.Errorf("delta against a busier device wrapped: %+v", delta)
	}
	if delta.Writes != 0 {
		t.Errorf("Writes delta = %d, want 0 (1 write < 5 before)", delta.Writes)
	}
}

func TestStatsSubExactDeltas(t *testing.T) {
	d := New(NVBM, LineSize)
	buf := make([]byte, 8)
	d.WriteAt(0, buf)
	before := d.Stats()
	d.WriteAt(0, buf)
	d.WriteAt(0, buf)
	d.ReadAt(0, buf)
	delta := d.Stats().Sub(before)
	if delta.Writes != 2 || delta.Reads != 1 {
		t.Errorf("delta = %d writes / %d reads, want 2/1", delta.Writes, delta.Reads)
	}
	if delta.WriteBytes != 16 || delta.ReadBytes != 8 {
		t.Errorf("delta bytes = %dW/%dR, want 16/8", delta.WriteBytes, delta.ReadBytes)
	}
	if delta.ModeledNs == 0 {
		t.Error("ModeledNs delta = 0, want > 0")
	}
}

func TestWearStatsSub(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	buf := make([]byte, 8)
	d.WriteAt(0, buf)
	d.WriteAt(0, buf)
	before := d.Wear()
	d.WriteAt(0, buf)
	d.WriteAt(LineSize, buf)
	after := d.Wear()

	delta := after.Sub(before)
	if delta.TotalWear != 2 {
		t.Errorf("TotalWear delta = %d, want 2", delta.TotalWear)
	}
	// Lines and MaxWear are point-in-time, not differenced: the hottest
	// line's identity may change between snapshots.
	if delta.Lines != after.Lines {
		t.Errorf("Lines = %d, want the later snapshot's %d", delta.Lines, after.Lines)
	}
	if delta.MaxWear != after.MaxWear {
		t.Errorf("MaxWear = %d, want the later snapshot's %d", delta.MaxWear, after.MaxWear)
	}
}

func TestWearStatsSubSaturates(t *testing.T) {
	a := WearStats{Lines: 1, MaxWear: 1, TotalWear: 1}
	b := WearStats{Lines: 2, MaxWear: 5, TotalWear: 10}
	if got := a.Sub(b).TotalWear; got != 0 {
		t.Errorf("TotalWear = %d, want 0 (saturating)", got)
	}
}
