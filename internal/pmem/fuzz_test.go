package pmem

import (
	"slices"
	"testing"

	"pmoctree/internal/nvbm"
)

// FuzzArenaOps drives the allocator with an arbitrary operation script —
// single allocations, first-fit runs, frees of the newest or of a middle
// slot, FreeSet sweeps, and mid-script landings with reopens (the recovery
// path) — with wear leveling off or on (the script's first byte), and
// checks it against a slot-set model after every operation:
//   - no slot is handed out while it is live, and every run is the lowest
//     extent of free slots that fits, counting slots past the high water
//     as free, so the high water grows only when no free extent fits;
//   - the mirror holds exactly the model's live slots;
//   - the free list yields no live slot, lists every free slot below the
//     high water, and stays within twice the free-slot count;
//   - a reopen after a landing rebuilds the mirror, the high water and the
//     free slots exactly.
func FuzzArenaOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{1, 3, 3, 21, 4, 5, 9, 0, 3, 0, 0, 10, 27, 2, 45, 0, 4, 4, 3})
	f.Add([]byte{0, 63, 3, 0, 0, 0, 11, 17, 2, 9, 3, 0, 4, 0, 1, 33})
	// Runs take listed slots until the stale entries outnumber the free
	// ones: LIFO, then FIFO.
	trim := append(make([]byte, 20), 5, 11, 17, 15, 15, 0, 0, 0, 4, 0)
	f.Add(trim)
	f.Add(append([]byte{1}, trim...))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		const capSlots = 1024
		wear := len(script) > 0 && script[0]&1 == 1
		dev := nvbm.New(nvbm.NVBM, 0)
		a := NewArenaCap(dev, 16, capSlots)
		a.SetWearLeveling(wear)

		live := make([]bool, capSlots) // the model's slot set
		data := make([]byte, capSlots) // payload byte of each live slot
		var order []uint32             // live slots, oldest first
		hw := 0
		take := func(i int, idx uint32, v byte) {
			if live[idx] {
				t.Fatalf("op %d: slot %d handed out while live", i, idx)
			}
			live[idx], data[idx] = true, v
			order = append(order, idx)
			a.Write(Handle(idx+1), []byte{v, v, v, v})
		}
		drop := func(k int) {
			live[order[k]] = false
			order = slices.Delete(order, k, k+1)
		}
		firstFit := func(n int) int {
			run := 0
			for s := 0; ; s++ {
				if s >= hw || !live[s] {
					run++
				} else {
					run = 0
				}
				if run == n {
					return s - n + 1
				}
			}
		}

		for i, op := range script {
			switch op % 6 {
			case 0: // alloc + write
				if len(order) == hw && hw == capSlots {
					continue
				}
				idx := uint32(a.AllocRaw() - 1)
				take(i, idx, byte(i))
				if int(idx) >= hw {
					if int(idx) != hw {
						t.Fatalf("op %d: fresh slot %d, high water was %d", i, idx, hw)
					}
					hw++
				}
			case 1: // free newest
				if len(order) > 0 {
					a.Free(Handle(order[len(order)-1] + 1))
					drop(len(order) - 1)
				}
			case 2: // land, then reopen (crash recovery)
				land(a)
				re, err := OpenArena(dev)
				if err != nil {
					t.Fatalf("op %d: reopen: %v", i, err)
				}
				if !slices.Equal(re.LiveWords(), a.LiveWords()) || re.HighWater() != a.HighWater() {
					t.Fatalf("op %d: reopened mirror %x (hw %d), landed %x (hw %d)",
						i, re.LiveWords(), re.HighWater(), a.LiveWords(), a.HighWater())
				}
				var want []uint32
				for s := 0; s < hw; s++ {
					if !live[s] {
						want = append(want, uint32(s))
					}
				}
				re.listFree()
				if !slices.Equal(re.free, want) {
					t.Fatalf("op %d: reopened free list %v, want %v", i, re.free, want)
				}
				re.SetWearLeveling(wear)
				a = re
			case 3: // run of 1..169 slots
				n := 1 + 4*int(op/6)
				want := firstFit(n)
				if want+n > capSlots {
					continue
				}
				start := int(a.AllocRun(n) - 1)
				if start != want {
					t.Fatalf("op %d: run of %d at slot %d, first fit is %d", i, n, start, want)
				}
				for s := start; s < start+n; s++ {
					take(i, uint32(s), byte(i+s))
				}
				hw = max(hw, start+n)
			case 4: // free a middle slot, leaving a hole
				if len(order) > 0 {
					k := int(op) % len(order)
					a.Free(Handle(order[k] + 1))
					drop(k)
				}
			case 5: // FreeSet every live slot in one residue class
				dead := make([]uint64, capSlots/64)
				for s := 0; s < capSlots; s++ {
					if s%3 == int(op/6)%3 {
						dead[s/64] |= 1 << (s % 64)
					}
				}
				n := 0
				for k := len(order) - 1; k >= 0; k-- {
					if int(order[k])%3 == int(op/6)%3 {
						drop(k)
						n++
					}
				}
				if got := a.FreeSet(dead); got != n {
					t.Fatalf("op %d: FreeSet freed %d, model %d", i, got, n)
				}
			}

			if a.LiveCount() != len(order) || int(a.HighWater()) != hw {
				t.Fatalf("op %d: live %d hw %d, model %d hw %d", i, a.LiveCount(), a.HighWater(), len(order), hw)
			}
			for s := 0; s < capSlots; s++ {
				if a.bit(uint32(s)) != live[s] {
					t.Fatalf("op %d: mirror bit of slot %d is %v, model %v", i, s, a.bit(uint32(s)), live[s])
				}
			}
			if a.unlisted {
				continue
			}
			listed := make([]bool, hw)
			for _, idx := range a.free[a.fifoHead:] {
				if int(idx) >= hw {
					t.Fatalf("op %d: free list holds slot %d past the high water %d", i, idx, hw)
				}
				listed[idx] = true
			}
			for s := 0; s < hw; s++ {
				if !live[s] && !listed[s] {
					t.Fatalf("op %d: free slot %d is not on the free list", i, s)
				}
			}
			if l, free := len(a.free)-a.fifoHead, hw-len(order); l > 2*free {
				t.Fatalf("op %d: free list holds %d entries for %d free slots", i, l, free)
			}
		}
		// All surviving payloads intact.
		buf := make([]byte, 4)
		for _, idx := range order {
			a.Read(Handle(idx+1), buf)
			for _, b := range buf {
				if b != data[idx] {
					t.Fatalf("slot %d corrupted: %v != %d", idx, buf, data[idx])
				}
			}
		}
	})
}
