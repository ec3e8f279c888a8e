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
//   - no slot is handed out while it is live, and every allocation, single
//     or run, is the lowest extent of free slots that fits, counting slots
//     past the high water as free; under wear leveling it is the first one
//     after the previous allocation (next fit), unless that would raise
//     the high water;
//   - the high water grows only when no free extent below it fits, in
//     both modes;
//   - the mirror holds exactly the model's live slots;
//   - a reopen after a landing rebuilds the mirror and the high water
//     exactly, and allocates from them as the model does, its next-fit
//     cursor back at slot 0.
func FuzzArenaOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{1, 3, 3, 21, 4, 5, 9, 0, 3, 0, 0, 10, 27, 2, 45, 0, 4, 4, 3})
	f.Add([]byte{0, 63, 3, 0, 0, 0, 11, 17, 2, 9, 3, 0, 4, 0, 1, 33})
	// Runs and single allocations among frees: first fit, then next fit.
	refill := append(make([]byte, 20), 5, 11, 17, 15, 15, 0, 0, 0, 4, 0)
	f.Add(refill)
	f.Add(append([]byte{1}, refill...))
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
		hw, next := 0, 0               // high water, next-fit cursor
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
		firstFit := func(n, from int) int {
			run := 0
			for s := from; ; s++ {
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
		// allocate checks that a allocated n slots at start where the model
		// would, and takes them.
		allocate := func(i, n, start int) {
			want := firstFit(n, 0)
			if wear {
				if s := firstFit(n, next); s+n <= hw {
					want = s
				}
			}
			if start != want {
				t.Fatalf("op %d: %d slots at slot %d, the model's fit is %d (wear %v, next %d)", i, n, start, want, wear, next)
			}
			if start+n > hw && firstFit(n, 0)+n <= hw {
				t.Fatalf("op %d: %d slots at %d raised the high water %d past a free extent that fits", i, n, start, hw)
			}
			for s := start; s < start+n; s++ {
				take(i, uint32(s), byte(i+s))
			}
			hw, next = max(hw, start+n), start+n
		}

		for i, op := range script {
			switch op % 6 {
			case 0: // alloc + write
				if len(order) == hw && hw == capSlots {
					continue
				}
				allocate(i, 1, int(a.AllocRaw()-1))
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
				re.SetWearLeveling(wear)
				a, next = re, 0
			case 3: // run of 1..169 slots
				n := 1 + 4*int(op/6)
				if firstFit(n, 0)+n > capSlots {
					continue
				}
				allocate(i, n, int(a.AllocRun(n)-1))
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
