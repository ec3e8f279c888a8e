package pmem

import (
	"reflect"
	"testing"

	"pmoctree/internal/nvbm"
)

// TestAllocRunEquivalence proves a run is indistinguishable, once
// landed, from the same slots allocated one by one: identical bitmap
// mirror, identical high water, identical reopened state.
func TestAllocRunEquivalence(t *testing.T) {
	devA := nvbm.New(nvbm.NVBM, 0)
	devB := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(devA, 88)
	b := NewArena(devB, 88)
	const n = 300
	for i := 0; i < n; i++ {
		a.AllocRaw()
	}
	h := b.AllocRun(n)
	if h != 1 {
		t.Fatalf("run handle = %d, want 1", h)
	}
	if a.HighWater() != b.HighWater() || a.LiveCount() != b.LiveCount() {
		t.Fatalf("state diverged: hw %d/%d live %d/%d", a.HighWater(), b.HighWater(), a.LiveCount(), b.LiveCount())
	}
	if !reflect.DeepEqual(a.LiveWords(), b.LiveWords()) {
		t.Fatal("liveWords mirrors diverged")
	}
	land(a)
	land(b)
	// The persistent images agree byte for byte over header + bitmap.
	bmBytes := headerSize + a.bitmapBytes()
	bufA := make([]byte, bmBytes)
	bufB := make([]byte, bmBytes)
	devA.ReadAt(0, bufA)
	devB.ReadAt(0, bufB)
	if !reflect.DeepEqual(bufA, bufB) {
		t.Fatal("persistent metadata diverged")
	}
	ra, err := OpenArena(devA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := OpenArena(devB)
	if err != nil {
		t.Fatal(err)
	}
	if ra.LiveCount() != rb.LiveCount() || ra.HighWater() != rb.HighWater() {
		t.Fatal("reopened state diverged")
	}
}

// TestAllocRunAfterChurn checks a run lands above the high-water mark and
// leaves earlier free slots alone, across an arbitrary alloc/free history
// that puts the run start mid-byte and mid-word.
func TestAllocRunAfterChurn(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 88)
	var hs []Handle
	for i := 0; i < 77; i++ { // 77: run starts mid-byte and mid-word
		hs = append(hs, a.AllocRaw())
	}
	a.Free(hs[10])
	a.Free(hs[33])
	h := a.AllocRun(130)
	if got, want := uint32(h), uint32(78); got != want {
		t.Fatalf("run starts at handle %d, want %d", got, want)
	}
	for i := uint32(0); i < 130; i++ {
		if !a.Live(Handle(uint32(h) + i)) {
			t.Fatalf("run slot %d not live", i)
		}
	}
	if a.Live(hs[10]) || a.Live(hs[33]) {
		t.Fatal("run resurrected freed slots")
	}
	if a.LiveCount() != 77-2+130 {
		t.Fatalf("live = %d", a.LiveCount())
	}
	// Each run slot is independently writable and readable.
	p := make([]byte, 88)
	for i := 0; i < 130; i += 37 {
		for j := range p {
			p[j] = byte(i + j)
		}
		a.Write(Handle(int(h)+i), p)
	}
	q := make([]byte, 88)
	a.Read(Handle(int(h)+37), q)
	for j := range q {
		if q[j] != byte(37+j) {
			t.Fatalf("slot payload corrupt at byte %d", j)
		}
	}
	// Reopen after a landing: the full live set survives, the two freed
	// slots are back on the free list.
	land(a)
	r, err := OpenArena(dev)
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveCount() != a.LiveCount() {
		t.Fatalf("reopened live = %d, want %d", r.LiveCount(), a.LiveCount())
	}
	if r.Live(hs[10]) || !r.Live(Handle(uint32(h)+129)) {
		t.Fatal("reopened liveness wrong")
	}
}

// TestAllocRunDeferred checks a run dirties its words without touching
// the device, and a TakeDirtyBits → WriteBitsExclusive cycle lands state
// a reopen can rebuild.
func TestAllocRunDeferred(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 88)
	a.AllocRaw()
	land(a)
	st := dev.Stats()
	h := a.AllocRun(200)
	if dev.Stats() != st {
		t.Fatal("a run charged device traffic before its landing")
	}
	words, hw := a.TakeDirtyBits(nil)
	if hw != 201 {
		t.Fatalf("snapshot high water = %d, want 201", hw)
	}
	if len(words) != 4 { // slots 1..200 span words 0..3
		t.Fatalf("dirtied %d words, want 4", len(words))
	}
	a.WriteBitsExclusive(words, hw)
	r, err := OpenArena(dev)
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveCount() != 201 || !r.Live(Handle(uint32(h)+199)) {
		t.Fatalf("reopened live = %d", r.LiveCount())
	}
}

// TestAllocRunGrowsAndPanics: a run forces geometric device growth, and
// overrunning the formatted capacity panics like AllocRaw does.
func TestAllocRunGrowsAndPanics(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArenaCap(dev, 88, 1000)
	h := a.AllocRun(900)
	if h != 1 || a.HighWater() != 900 {
		t.Fatalf("run = %d, hw = %d", h, a.HighWater())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity run did not panic")
		}
	}()
	a.AllocRun(101)
}
