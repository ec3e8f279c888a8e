package pmem

import (
	"bytes"
	"testing"
	"testing/quick"

	"pmoctree/internal/nvbm"
)

func newTestArena(t *testing.T, kind nvbm.Kind, slotSize int) *Arena {
	t.Helper()
	return NewArena(nvbm.New(kind, 4096), slotSize)
}

// alloc allocates a slot and zeroes its payload, as a caller that does not
// overwrite the whole slot must.
func alloc(a *Arena) Handle {
	h := a.AllocRaw()
	a.Write(h, make([]byte, a.SlotSize()))
	return h
}

// land stores every dirty bitmap word and the high water, as a commit does
// before its root store.
func land(a *Arena) {
	words, hw := a.TakeDirtyBits(nil)
	a.WriteBitsExclusive(words, hw)
}

func TestAllocFreeCycle(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 32)
	h1 := alloc(a)
	h2 := alloc(a)
	if h1 == h2 {
		t.Fatalf("duplicate handles: %d", h1)
	}
	if h1.IsNil() || h2.IsNil() {
		t.Fatal("Alloc returned nil handle")
	}
	if a.LiveCount() != 2 {
		t.Errorf("LiveCount = %d", a.LiveCount())
	}
	a.Free(h1)
	if a.LiveCount() != 1 {
		t.Errorf("LiveCount after free = %d", a.LiveCount())
	}
	// Freed slot is recycled.
	h3 := alloc(a)
	if h3 != h1 {
		t.Errorf("expected recycled handle %d, got %d", h1, h3)
	}
}

func TestAllocZeroesSlot(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 16)
	h := alloc(a)
	a.Write(h, bytes.Repeat([]byte{0xff}, 16))
	a.Free(h)
	h2 := alloc(a)
	if h2 != h {
		t.Fatalf("expected recycled slot")
	}
	got := make([]byte, 16)
	a.Read(h2, got)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Errorf("recycled slot not zeroed: %v", got)
	}
}

func TestReadWritePayload(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 24)
	h := alloc(a)
	payload := []byte("twenty-four byte payload")
	a.Write(h, payload)
	got := make([]byte, 24)
	a.Read(h, got)
	if !bytes.Equal(got, payload) {
		t.Errorf("payload round trip: %q", got)
	}
}

func TestFieldAccess(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 32)
	h := alloc(a)
	a.WriteField(h, 8, []byte{1, 2, 3, 4})
	got := make([]byte, 4)
	a.ReadField(h, 8, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("field round trip: %v", got)
	}
	// Whole-slot read sees the field at its offset.
	full := make([]byte, 32)
	a.Read(h, full)
	if !bytes.Equal(full[8:12], []byte{1, 2, 3, 4}) {
		t.Errorf("field not at offset: %v", full)
	}
}

func TestFieldOutOfRangePanics(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 16)
	h := alloc(a)
	for _, fn := range []func(){
		func() { a.ReadField(h, 12, make([]byte, 8)) },
		func() { a.WriteField(h, -1, make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range field")
				}
			}()
			fn()
		}()
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 8)
	h := alloc(a)
	a.Free(h)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(h)
}

func TestFreeNilIsNoop(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 8)
	a.Free(Nil) // must not panic
	if a.LiveCount() != 0 {
		t.Error("Free(Nil) changed live count")
	}
}

func TestNilHandleDerefPanics(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 8)
	defer func() {
		if recover() == nil {
			t.Error("nil deref did not panic")
		}
	}()
	a.Read(Nil, make([]byte, 8))
}

func TestArenaGrowth(t *testing.T) {
	a := NewArena(nvbm.New(nvbm.NVBM, 0), 64)
	var handles []Handle
	for i := 0; i < 1000; i++ {
		handles = append(handles, alloc(a))
	}
	if a.LiveCount() != 1000 {
		t.Fatalf("LiveCount = %d", a.LiveCount())
	}
	// All handles distinct and round-trip data.
	seen := map[Handle]bool{}
	for i, h := range handles {
		if seen[h] {
			t.Fatalf("duplicate handle %d", h)
		}
		seen[h] = true
		a.WriteField(h, 0, []byte{byte(i), byte(i >> 8)})
	}
	for i, h := range handles {
		got := make([]byte, 2)
		a.ReadField(h, 0, got)
		if got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("slot %d corrupted: %v", i, got)
		}
	}
}

func TestLiveQuery(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 8)
	h := alloc(a)
	if !a.Live(h) {
		t.Error("allocated slot not live")
	}
	a.Free(h)
	if a.Live(h) {
		t.Error("freed slot reported live")
	}
	if a.Live(Nil) {
		t.Error("nil handle reported live")
	}
	if a.Live(Handle(9999)) {
		t.Error("out-of-range handle reported live")
	}
}

func TestRoots(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 8)
	a.SetRoot(0, 111)
	a.SetRoot(1, 222)
	if a.Root(0) != 111 || a.Root(1) != 222 {
		t.Errorf("roots = %d, %d", a.Root(0), a.Root(1))
	}
	// Swap, as the persist commit point does.
	r0, r1 := a.Root(0), a.Root(1)
	a.SetRoot(0, r1)
	a.SetRoot(1, r0)
	if a.Root(0) != 222 || a.Root(1) != 111 {
		t.Error("root swap failed")
	}
}

func TestRootRangePanics(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.SetRoot(NumRoots, 1)
}

// TestStoreLostOnWornLine: SetRoot and WriteBitsExclusive read their
// stores back, so a worn-out line that drops one panics with ErrStoreLost;
// a store that leaves the line as it was loses nothing.
func TestStoreLostOnWornLine(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 8)
	h := alloc(a)
	land(a)
	a.SetRoot(0, uint64(h))
	// Every line written so far (header, root table, bitmap) wears out.
	a.Device().SetWearLimit(1)
	lost := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != ErrStoreLost {
				t.Errorf("%s on a worn-out line: recovered %v, want ErrStoreLost", name, r)
			}
		}()
		f()
	}
	lost("SetRoot", func() { a.SetRoot(0, 7) })
	alloc(a)
	lost("landing", func() { land(a) })
	a.SetRoot(0, uint64(h)) // unchanged: nothing lost
	a.Device().SetWearLimit(0)
	if a.Root(0) != uint64(h) {
		t.Errorf("root 0 = %d, want %d", a.Root(0), h)
	}
}

func TestOpenArenaRecoversState(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 16)
	h1 := alloc(a)
	h2 := alloc(a)
	h3 := alloc(a)
	a.Write(h2, []byte("surviving data!!"))
	a.Free(h1)
	land(a)
	a.SetRoot(0, uint64(h2))
	_ = h3

	// Simulate crash: volatile Arena struct is lost, device survives.
	re, err := OpenArena(dev)
	if err != nil {
		t.Fatal(err)
	}
	if re.LiveCount() != 2 {
		t.Errorf("recovered LiveCount = %d, want 2", re.LiveCount())
	}
	if re.HighWater() != 3 {
		t.Errorf("recovered HighWater = %d, want 3", re.HighWater())
	}
	if Handle(re.Root(0)) != h2 {
		t.Errorf("recovered root = %d, want %d", re.Root(0), h2)
	}
	got := make([]byte, 16)
	re.Read(Handle(re.Root(0)), got)
	if string(got) != "surviving data!!" {
		t.Errorf("recovered payload = %q", got)
	}
	// Freed slot must be reusable after recovery.
	h := alloc(re)
	if h != h1 {
		t.Errorf("recovered arena did not recycle freed slot %d (got %d)", h1, h)
	}
}

func TestOpenArenaAcrossFilePersist(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 8)
	h := alloc(a)
	a.Write(h, []byte("disk8byt"))
	land(a)
	a.SetRoot(0, uint64(h))

	path := t.TempDir() + "/arena.img"
	if err := dev.PersistFile(path); err != nil {
		t.Fatal(err)
	}
	dev2, err := nvbm.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := OpenArena(dev2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	a2.Read(Handle(a2.Root(0)), got)
	if string(got) != "disk8byt" {
		t.Errorf("across-file payload = %q", got)
	}
}

func TestOpenArenaRejectsGarbage(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 256)
	if _, err := OpenArena(dev); err == nil {
		t.Error("expected error for unformatted device")
	}
	small := nvbm.New(nvbm.NVBM, 4)
	if _, err := OpenArena(small); err == nil {
		t.Error("expected error for tiny device")
	}
}

// An arena on a DRAM device keeps no bitmap: its slots start right after
// the header, and there is nothing for OpenArena to reopen.
func TestDRAMArenaKeepsNoBitmap(t *testing.T) {
	dev := nvbm.New(nvbm.DRAM, 0)
	a := NewArena(dev, 8)
	if got := a.DataOffset(); got != headerSize {
		t.Errorf("DRAM arena DataOffset = %d, want the header size %d", got, headerSize)
	}
	if dev.Size() != headerSize {
		t.Errorf("formatting grew the DRAM device to %d bytes, want %d", dev.Size(), headerSize)
	}
	h := alloc(a)
	a.Write(h, []byte("dramslot"))
	got := make([]byte, 8)
	a.Read(h, got)
	if string(got) != "dramslot" {
		t.Errorf("payload = %q", got)
	}
	if _, err := OpenArena(dev); err == nil {
		t.Error("OpenArena reopened a DRAM arena")
	}
	if nv := NewArena(nvbm.New(nvbm.NVBM, 0), 8); nv.DataOffset() != headerSize+DefaultMaxSlots/8 {
		t.Errorf("NVBM arena DataOffset = %d, want header plus bitmap %d", nv.DataOffset(), headerSize+DefaultMaxSlots/8)
	}
}

func TestUtilizationAndBudget(t *testing.T) {
	a := newTestArena(t, nvbm.DRAM, 8)
	if a.Utilization() != 0 {
		t.Error("utilization without budget should be 0")
	}
	a.SetBudget(4)
	if a.Budget() != 4 {
		t.Errorf("Budget = %d", a.Budget())
	}
	alloc(a)
	alloc(a)
	if got := a.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	for i := 0; i < 6; i++ {
		alloc(a)
	}
	if got := a.Utilization(); got != 1.0 {
		t.Errorf("Utilization clamped = %v, want 1.0", got)
	}
	if a.BytesInUse() == 0 {
		t.Error("BytesInUse = 0 with live slots")
	}
}

func TestSlotSizeAccessors(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 96)
	if a.SlotSize() != 96 {
		t.Errorf("SlotSize = %d", a.SlotSize())
	}
	if a.Device() == nil {
		t.Error("Device() nil")
	}
}

// Property: alloc/free in arbitrary interleavings keeps LiveCount
// consistent and never hands out a live handle twice.
func TestQuickAllocFreeInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewArena(nvbm.New(nvbm.NVBM, 0), 8)
		liveSet := map[Handle]bool{}
		var handles []Handle
		for _, isAlloc := range ops {
			if isAlloc || len(handles) == 0 {
				h := alloc(a)
				if liveSet[h] {
					return false // double-issued live handle
				}
				liveSet[h] = true
				handles = append(handles, h)
			} else {
				h := handles[len(handles)-1]
				handles = handles[:len(handles)-1]
				delete(liveSet, h)
				a.Free(h)
			}
			if a.LiveCount() != len(liveSet) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: data written to distinct live slots never interferes.
func TestQuickSlotIsolation(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		a := NewArena(nvbm.New(nvbm.NVBM, 0), 4)
		hs := make([]Handle, len(vals))
		for i, v := range vals {
			hs[i] = alloc(a)
			a.Write(hs[i], []byte{v, v, v, v})
		}
		for i, v := range vals {
			got := make([]byte, 4)
			a.Read(hs[i], got)
			if !bytes.Equal(got, []byte{v, v, v, v}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWearLevelingSpreadsReuse(t *testing.T) {
	// Lowest-first recycling hammers one slot; next fit rotates across
	// all freed slots, cutting peak line wear.
	cycle := func(level bool) uint32 {
		dev := nvbm.New(nvbm.NVBM, 0)
		a := NewArenaCap(dev, 64, 1024)
		a.SetWearLeveling(level)
		// Create a pool of freed slots.
		var hs []Handle
		for i := 0; i < 64; i++ {
			hs = append(hs, alloc(a))
		}
		for _, h := range hs {
			a.Free(h)
		}
		// Alloc/free churn with one live slot.
		for i := 0; i < 512; i++ {
			h := a.AllocRaw()
			a.Write(h, make([]byte, 64))
			a.Free(h)
		}
		// Measure the DATA region only: the allocator's bitmap line is a
		// metadata hot spot either way (see the endurance experiment).
		return dev.WearMax(a.slotsBase(), dev.Size())
	}
	lowest := cycle(false)
	nextFit := cycle(true)
	if nextFit*4 > lowest {
		t.Errorf("wear leveling ineffective: next-fit max wear %d vs lowest-first %d", nextFit, lowest)
	}
}

func TestWearLevelingCorrectness(t *testing.T) {
	// Next-fit mode must preserve allocator semantics exactly.
	a := NewArenaCap(nvbm.New(nvbm.NVBM, 0), 8, 256)
	a.SetWearLeveling(true)
	live := map[Handle][]byte{}
	for i := 0; i < 400; i++ {
		if i%3 == 2 && len(live) > 0 {
			for h := range live {
				a.Free(h)
				delete(live, h)
				break
			}
			continue
		}
		h := alloc(a)
		if _, dup := live[h]; dup {
			t.Fatalf("live handle %d reissued", h)
		}
		v := []byte{byte(i), byte(i >> 8), 0, 0, 0, 0, 0, 0}
		a.Write(h, v)
		live[h] = v
	}
	if a.LiveCount() != len(live) {
		t.Fatalf("live %d, model %d", a.LiveCount(), len(live))
	}
	buf := make([]byte, 8)
	for h, v := range live {
		a.Read(h, buf)
		if !bytes.Equal(buf, v) {
			t.Fatalf("slot %d corrupted", h)
		}
	}
}
