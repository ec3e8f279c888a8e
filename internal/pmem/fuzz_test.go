package pmem

import (
	"slices"
	"testing"

	"pmoctree/internal/nvbm"
)

// FuzzArenaOps drives the allocator with an arbitrary operation script and
// checks it against a reference model, including mid-script landings and
// reopens (the recovery path): a reopen follows a landing, so it must
// rebuild exactly the mirror and the free slots.
func FuzzArenaOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		dev := nvbm.New(nvbm.NVBM, 0)
		a := NewArenaCap(dev, 16, 1024)
		type slot struct {
			h    Handle
			data byte
		}
		var live []slot
		for i, op := range script {
			switch op % 3 {
			case 0: // alloc + write
				h := a.Alloc()
				v := byte(i)
				a.Write(h, []byte{v, v, v, v})
				live = append(live, slot{h, v})
			case 1: // free newest
				if len(live) > 0 {
					a.Free(live[len(live)-1].h)
					live = live[:len(live)-1]
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
				if a.unlisted {
					a.listFree()
				}
				want := slices.Clone(a.free)
				slices.Sort(want)
				re.listFree()
				if !slices.Equal(re.free, want) {
					t.Fatalf("op %d: reopened free list %v, want %v", i, re.free, want)
				}
				a = re
			}
			if a.LiveCount() != len(live) {
				t.Fatalf("op %d: live %d, model %d", i, a.LiveCount(), len(live))
			}
		}
		// All surviving payloads intact.
		buf := make([]byte, 4)
		for _, s := range live {
			a.Read(s.h, buf)
			for _, b := range buf {
				if b != s.data {
					t.Fatalf("slot %d corrupted: %v != %d", s.h, buf, s.data)
				}
			}
		}
	})
}
