package pmem

import (
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/nvbm"
)

// openPerBit is the per-bit rebuild OpenArena replaced, kept as its
// oracle: it reads the landed bitmap prefix and walks it slot by slot,
// listing the free slots in ascending order.
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
// the per-bit loop: the same mirror and live count at open, with high
// waters inside and at the end of a word, and with stray bitmap bits past
// the high water (which both must ignore). A reopened arena that allocates
// every free slot gets them in ascending order, then the high water, with
// wear leveling off (first fit) and on (next fit from slot 0).
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
			for _, wear := range []bool{false, true} {
				r, err := OpenArena(dev)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(r.LiveWords(), wantWords) || r.LiveCount() != wantLive {
					t.Fatalf("hw %d seed %d: rebuild differs from the per-bit loop (live %d, want %d)",
						hw, seed, r.LiveCount(), wantLive)
				}
				if r.LiveCount() != a.LiveCount() {
					t.Fatalf("hw %d seed %d: reopened live %d, landed %d", hw, seed, r.LiveCount(), a.LiveCount())
				}
				r.SetWearLeveling(wear)
				for i, idx := range wantFree {
					if h := r.AllocRaw(); h != Handle(idx+1) {
						t.Fatalf("hw %d seed %d wear %v: allocation %d got handle %d, the lowest free slot is %d", hw, seed, wear, i, h, idx+1)
					}
				}
				if h := r.AllocRaw(); h != Handle(hw+1) {
					t.Fatalf("hw %d seed %d wear %v: allocation past the free slots got handle %d, want %d", hw, seed, wear, h, hw+1)
				}
			}
		}
	}
}

// TestReopenAllocatesLikeOriginal churns an arena with single allocations,
// runs, frees in no particular order and sweeps, lands it, and reopens a
// clone of its device: in the default mode the reopened arena and the one
// that landed the bitmap hand out the same next handles, because the
// mirror is all either consults.
func TestReopenAllocatesLikeOriginal(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := nvbm.New(nvbm.NVBM, 0)
		a := NewArena(dev, 24)
		var live []Handle
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				live = append(live, a.AllocRaw())
			case r < 5:
				n := 1 + rng.Intn(90)
				h := a.AllocRun(n)
				for i := 0; i < n; i++ {
					live = append(live, h+Handle(i))
				}
			case r < 9:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					a.Free(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			default:
				dead := make([]uint64, (a.HighWater()+63)/64)
				kept := live[:0]
				for _, h := range live {
					if rng.Intn(4) == 0 {
						dead[(h-1)/64] |= 1 << ((h - 1) % 64)
					} else {
						kept = append(kept, h)
					}
				}
				live = kept
				a.FreeSet(dead)
			}
		}
		land(a)
		r, err := OpenArena(dev.Clone())
		if err != nil {
			t.Fatal(err)
		}
		free := int(a.HighWater()) - a.LiveCount()
		if free == 0 {
			t.Fatalf("seed %d: the churn left no free slot to reuse", seed)
		}
		for i := 0; i < free+20; i++ {
			if w, g := a.AllocRaw(), r.AllocRaw(); w != g {
				t.Fatalf("seed %d: allocation %d of the reopened arena got handle %d, the original %d", seed, i, g, w)
			}
		}
		for _, n := range []int{1, 7, 64, 200} {
			if w, g := a.AllocRun(n), r.AllocRun(n); w != g {
				t.Fatalf("seed %d: run of %d: reopened arena at handle %d, the original at %d", seed, n, g, w)
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
