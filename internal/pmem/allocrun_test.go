package pmem

import (
	"math/rand"
	"reflect"
	"slices"
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

// TestAllocRunAfterChurn checks a run too long for any freed hole lands at
// the high-water mark and leaves the holes alone, across an arbitrary
// alloc/free history that puts the run start mid-byte and mid-word.
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
	// slots stay free.
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

// TestAllocRunReusesFirstFit checks a run takes the lowest free extent that
// fits — inside a word, across words, or a free tail that the high water
// ends — moves the high water only by the part past it, and grows the
// device only when nothing below the mark fits. AllocRaw then takes the
// free slots the runs left, lowest first, and only then the high water.
func TestAllocRunReusesFirstFit(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 88)
	a.AllocRun(1000)
	free := func(lo, hi int) { // frees slots [lo, hi)
		for i := lo; i < hi; i++ {
			a.Free(Handle(i + 1))
		}
	}
	free(3, 7)      // 4 slots inside word 0
	free(10, 20)    // 10 slots inside word 0
	free(100, 300)  // 200 slots across words 1-4
	free(900, 1000) // the tail below the high water
	size := dev.Size()
	for _, tc := range []struct{ n, start, hw int }{
		{4, 3, 1000},       // the first hole fits exactly
		{8, 10, 1000},      // too long for what is left of it: the next
		{2, 18, 1000},      // the rest of the second hole
		{150, 100, 1000},   // across words
		{60, 900, 1000},    // too long for the 50 left there: the tail
		{100, 960, 1060},   // 40 tail slots left: a run past the mark
		{4000, 1060, 5060}, // nothing fits: the device grows
	} {
		if got := int(a.AllocRun(tc.n)) - 1; got != tc.start || int(a.HighWater()) != tc.hw {
			t.Fatalf("run of %d at slot %d (high water %d), want %d (%d)", tc.n, got, a.HighWater(), tc.start, tc.hw)
		}
		if tc.hw == 1000 && dev.Size() != size {
			t.Fatalf("run of %d below the high water grew the device %d -> %d", tc.n, size, dev.Size())
		}
	}
	if dev.Size() == size {
		t.Fatal("a run past every free extent did not grow the device")
	}
	// The free slots left are 250-299.
	for s := 250; s < 300; s++ {
		if got := int(a.AllocRaw()) - 1; got != s {
			t.Fatalf("AllocRaw handed out slot %d, want the lowest free slot %d", got, s)
		}
	}
	if h := a.AllocRaw(); int(h)-1 != 5060 {
		t.Fatalf("allocation past the free slots got slot %d, want 5060", int(h)-1)
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

// BenchmarkAllocRun times first fit on a fragmented 2^21-slot mirror: a
// 2e5-slot run (a bulk_routed ingest) passes full words, half-free words
// and 64-slot holes before it finds the one extent that fits, at the end.
// Each iteration puts the run's mirror words back, so every one scans the
// same mirror.
func BenchmarkAllocRun(b *testing.B) {
	const slots, n = DefaultMaxSlots, 200_000
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 8)
	a.AllocRun(slots)
	rng := rand.New(rand.NewSource(1))
	dead := make([]uint64, slots/64)
	for wi := range dead {
		switch {
		case wi < len(dead)/4: // full
		case wi < len(dead)/2: // about half free, in short runs
			dead[wi] = rng.Uint64()
		case 64*wi < slots-n: // a free word between full ones
			if wi%2 == 0 {
				dead[wi] = ^uint64(0)
			}
		default: // the extent that fits
			dead[wi] = ^uint64(0)
		}
	}
	a.FreeSet(dead)
	land(a)
	a, err := OpenArena(dev)
	if err != nil {
		b.Fatal(err)
	}
	frag := slices.Clone(a.LiveWords())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := int(a.AllocRun(n) - 1)
		lo, hi := first/64, (first+n+63)/64
		copy(a.liveWords[lo:hi], frag[lo:hi])
		a.live -= n
	}
}

// BenchmarkAllocRaw times the allocator's steady state under GC: each
// iteration frees 12 k scattered slots of a full 100 k-slot arena of
// 88-byte records in one sweep, then allocates 12 k single slots, which
// refill exactly the freed ones.
func BenchmarkAllocRaw(b *testing.B) {
	const slots, frees = 100_000, 12_000
	rng := rand.New(rand.NewSource(1))
	dead := make([]uint64, (slots+63)/64)
	for n := 0; n < frees; {
		if i := rng.Intn(slots); dead[i/64]&(1<<(i%64)) == 0 {
			dead[i/64] |= 1 << (i % 64)
			n++
		}
	}
	a := NewArena(nvbm.New(nvbm.NVBM, 0), 88)
	a.AllocRun(slots)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := a.FreeSet(dead); n != frees {
			b.Fatalf("freed %d, want %d", n, frees)
		}
		for j := 0; j < frees; j++ {
			a.AllocRaw()
		}
	}
	if a.HighWater() != slots {
		b.Fatalf("high water %d, want %d: the allocations did not refill the freed slots", a.HighWater(), slots)
	}
}
