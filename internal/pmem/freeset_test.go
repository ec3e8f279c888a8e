package pmem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/nvbm"
)

// TestFreeSetMatchesFree holds FreeSet to a Free of each set slot, in a
// shuffled order: no device traffic, the same mirror, live count and dirty
// words, the same device bytes once both land, and the same later
// allocations, through every freed slot and past the high water.
func TestFreeSetMatchesFree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		build := func() *Arena {
			a := NewArena(nvbm.New(nvbm.NVBM, 0), 24)
			for i := 0; i < 900; i++ {
				a.AllocRaw()
			}
			land(a)
			return a
		}
		want, got := build(), build()
		rng := rand.New(rand.NewSource(seed))
		dead := make([]uint64, (900+63)/64)
		var hs []Handle
		for i := 0; i < 900; i++ {
			if rng.Intn(3) > 0 {
				dead[i/64] |= 1 << (i % 64)
				hs = append(hs, Handle(i+1))
			}
		}
		rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
		for _, h := range hs {
			want.Free(h)
		}
		st := got.Device().Stats()
		if n := got.FreeSet(dead); n != len(hs) {
			t.Fatalf("FreeSet freed %d slots, want %d", n, len(hs))
		}
		if got.Device().Stats() != st {
			t.Fatalf("seed %d: FreeSet charged device traffic", seed)
		}
		if want.LiveCount() != got.LiveCount() || !slices.Equal(want.LiveWords(), got.LiveWords()) {
			t.Fatalf("seed %d: allocation state differs from per-slot Free", seed)
		}
		ww, _ := want.TakeDirtyBits(nil)
		gw, hw := got.TakeDirtyBits(nil)
		if !slices.Equal(ww, gw) {
			t.Fatalf("seed %d: dirty words %v, per-slot Free gives %v", seed, gw, ww)
		}
		want.WriteBitsExclusive(ww, hw)
		got.WriteBitsExclusive(gw, hw)
		if !bytes.Equal(want.Device().Bytes(), got.Device().Bytes()) {
			t.Fatal("landed device contents differ from per-slot Free")
		}
		for i := 0; i < len(hs)+50; i++ {
			if w, g := want.AllocRaw(), got.AllocRaw(); w != g {
				t.Fatalf("allocation %d after the sweep: %d, per-slot Free gives %d", i, g, w)
			}
		}
	}
}

// FreeSet ignores set bits of slots that are not allocated, as the sweep's
// callers rely on (they mask by the live mirror anyway).
func TestFreeSetSkipsFreeSlots(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 24)
	h := alloc(a)
	alloc(a)
	a.Free(h)
	if n := a.FreeSet([]uint64{^uint64(0)}); n != 1 || a.LiveCount() != 0 {
		t.Fatalf("FreeSet freed %d, live %d; want 1, 0", n, a.LiveCount())
	}
}

// BenchmarkArenaFreeSet frees 189 k scattered slots of a 1.43 M-slot arena
// in one sweep: the size of a bulk_routed collection.
func BenchmarkArenaFreeSet(b *testing.B) {
	const slots, frees = 1_430_000, 189_000
	rng := rand.New(rand.NewSource(1))
	dead := make([]uint64, (slots+63)/64)
	for n := 0; n < frees; {
		if i := rng.Intn(slots); dead[i/64]&(1<<(i%64)) == 0 {
			dead[i/64] |= 1 << (i % 64)
			n++
		}
	}
	a := NewArena(nvbm.New(nvbm.NVBM, 0), 8)
	a.AllocRun(slots)
	full := slices.Clone(a.LiveWords())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := a.FreeSet(dead); n != frees {
			b.Fatalf("freed %d, want %d", n, frees)
		}
		b.StopTimer()
		copy(a.liveWords, full)
		a.live = slots
		b.StartTimer()
	}
}
