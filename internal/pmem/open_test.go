package pmem

import (
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/nvbm"
)

// openPerBit is the per-bit free-list rebuild OpenArena replaced, kept as
// its oracle: it reads the landed bitmap prefix and walks it slot by slot.
func openPerBit(dev *nvbm.Device) (liveWords []uint64, free []uint32, live int) {
	n := int(dev.ReadU32(highWaterOff))
	if n == 0 {
		return nil, nil, 0
	}
	bm := make([]byte, (n+7)/8)
	dev.ReadAt(headerSize, bm)
	liveWords = make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if bm[i/8]&(1<<(i%8)) != 0 {
			live++
			liveWords[i/64] |= 1 << (i % 64)
		} else {
			free = append(free, uint32(i))
		}
	}
	return liveWords, free, live
}

// TestOpenArenaMatchesPerBit holds OpenArena's word-at-a-time rebuild to
// the per-bit loop: the same mirror, free list and live count, with high
// waters inside and at the end of a word, and with stray bitmap bits past
// the high water (which both must ignore).
func TestOpenArenaMatchesPerBit(t *testing.T) {
	for _, hw := range []int{1, 63, 64, 65, 700, 4096, 5000} {
		for seed := int64(1); seed <= 3; seed++ {
			dev := nvbm.New(nvbm.NVBM, 0)
			a := NewArena(dev, 16)
			a.AllocRun(hw)
			rng := rand.New(rand.NewSource(seed))
			for i := 1; i <= hw; i++ {
				if rng.Intn(8) > 0 {
					a.Free(Handle(i))
				}
			}
			land(a)
			// Stray bits past the high water, in its word and the next.
			stray := []byte{0xff}
			dev.WriteAt(headerSize+hw/8, []byte{dev.Bytes()[headerSize+hw/8] | 0xff<<(hw%8)})
			dev.WriteAt(headerSize+hw/8+8, stray)

			wantWords, wantFree, wantLive := openPerBit(dev)
			r, err := OpenArena(dev)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.LiveWords(), wantWords) || !slices.Equal(r.free, wantFree) || r.LiveCount() != wantLive {
				t.Fatalf("hw %d seed %d: rebuild differs from the per-bit loop (live %d, want %d)",
					hw, seed, r.LiveCount(), wantLive)
			}
			if r.LiveCount() != a.LiveCount() {
				t.Fatalf("hw %d seed %d: reopened live %d, landed %d", hw, seed, r.LiveCount(), a.LiveCount())
			}
		}
	}
}

// BenchmarkOpenArena reopens a landed 1.43 M-slot arena with 12 % of its
// slots live, the shape of a bulk_routed arena after collection.
func BenchmarkOpenArena(b *testing.B) {
	const slots = 1_430_000
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 8)
	a.AllocRun(slots)
	rng := rand.New(rand.NewSource(1))
	dead := make([]uint64, (slots+63)/64)
	for i := 0; i < slots; i++ {
		if rng.Intn(100) >= 12 {
			dead[i/64] |= 1 << (i % 64)
		}
	}
	a.FreeSet(dead)
	land(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenArena(dev); err != nil {
			b.Fatal(err)
		}
	}
}
