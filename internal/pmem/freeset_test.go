package pmem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/nvbm"
)

// TestFreeSetMatchesFree holds FreeSet to a Free of each set slot in
// ascending order: same device bytes, device counts and wear, same free
// list (so the same later allocations), eager and deferred, with a wear
// limit that wears bitmap lines out mid-sweep.
func TestFreeSetMatchesFree(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		for _, limit := range []uint32{0, 25} {
			for seed := int64(1); seed <= 4; seed++ {
				build := func() *Arena {
					dev := nvbm.New(nvbm.NVBM, 0)
					dev.EnableMediaTracking()
					a := NewArena(dev, 24)
					a.SetDeferredBits(deferred)
					for i := 0; i < 900; i++ {
						a.AllocRaw()
					}
					if limit > 0 {
						// Just above the bitmap's wear: its lines wear out
						// part way through the sweep.
						dev.SetWearLimit(dev.WearMax(headerSize, a.DataOffset()) + limit)
					}
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
				for _, h := range hs {
					want.Free(h)
				}
				if n := got.FreeSet(dead); n != len(hs) {
					t.Fatalf("FreeSet freed %d slots, want %d", n, len(hs))
				}
				if w, g := want.Device().Stats(), got.Device().Stats(); w != g {
					t.Fatalf("deferred=%v limit=%d seed %d: device stats %+v, Free gives %+v", deferred, limit, seed, g, w)
				}
				if !bytes.Equal(want.Device().Bytes(), got.Device().Bytes()) {
					t.Fatal("device contents differ from per-slot Free")
				}
				if want.Device().Wear() != got.Device().Wear() || want.Device().FaultStats() != got.Device().FaultStats() {
					t.Fatal("wear or stuck writes differ from per-slot Free")
				}
				if want.LiveCount() != got.LiveCount() || !slices.Equal(want.LiveWords(), got.LiveWords()) {
					t.Fatal("allocation state differs from per-slot Free")
				}
				if limit > 0 && !deferred && got.Device().FaultStats().StuckWrites == 0 {
					t.Fatal("the wear limit never dropped a bitmap store; the case tests nothing")
				}
				for i := 0; i < 50; i++ {
					if w, g := want.AllocRaw(), got.AllocRaw(); w != g {
						t.Fatalf("allocation %d after the sweep: %d, per-slot Free gives %d", i, g, w)
					}
				}
			}
		}
	}
}

// FreeSet ignores set bits of slots that are not allocated, as the sweep's
// callers rely on (they mask by the live mirror anyway).
func TestFreeSetSkipsFreeSlots(t *testing.T) {
	a := newTestArena(t, nvbm.NVBM, 24)
	h := a.Alloc()
	a.Alloc()
	a.Free(h)
	if n := a.FreeSet([]uint64{^uint64(0)}); n != 1 || a.LiveCount() != 0 {
		t.Fatalf("FreeSet freed %d, live %d; want 1, 0", n, a.LiveCount())
	}
}
