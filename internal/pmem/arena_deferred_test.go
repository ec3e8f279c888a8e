package pmem

import (
	"strings"
	"testing"

	"pmoctree/internal/nvbm"
)

// TestArenaDeferredBits exercises the bitmap-landing contract: allocs and
// frees touch only the volatile mirror; a TakeDirtyBits snapshot landed
// via WriteBitsExclusive makes the device agree with the mirror, and a
// crash-style reopen (OpenArena on the raw device) rebuilds exactly the
// landed state — the allocations and frees after it are lost.
func TestArenaDeferredBits(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 88)
	st0 := dev.Stats()
	base := make([]Handle, 10)
	for i := range base {
		base[i] = a.AllocRaw()
	}
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, a.AllocRaw())
	}
	a.Free(hs[3])
	a.Free(hs[97])
	if st := dev.Stats().Sub(st0); st.Writes != 0 || st.Reads != 0 {
		t.Fatalf("allocs/frees charged %d device writes and %d reads", st.Writes, st.Reads)
	}
	if a.Live(hs[3]) || !a.Live(hs[4]) {
		t.Fatal("mirror-backed Live out of lockstep with frees")
	}

	words, hw := a.TakeDirtyBits(nil)
	if len(words) != 2 { // slots 0..109 span words 0 and 1
		t.Fatalf("took %d dirty words after 110 allocations, want 2", len(words))
	}
	if hw != a.HighWater() {
		t.Fatalf("snapshot high water %d, arena %d", hw, a.HighWater())
	}
	a.WriteBitsExclusive(words, hw)
	if more, _ := a.TakeDirtyBits(nil); len(more) != 0 {
		t.Fatalf("dirty set not cleared by take: %d words", len(more))
	}

	// Changes after the landing never reach the device.
	a.Free(hs[4])
	late := a.AllocRun(1)

	// A reopen (the crash-recovery path) sees the landed state.
	b, err := OpenArena(dev)
	if err != nil {
		t.Fatal(err)
	}
	if b.HighWater() != hw {
		t.Fatalf("reopened high water %d, want %d", b.HighWater(), hw)
	}
	if b.LiveCount() != 108 {
		t.Fatalf("reopened live count %d, want 108", b.LiveCount())
	}
	if b.Live(hs[3]) || !b.Live(hs[4]) || !b.Live(base[0]) || b.Live(late) {
		t.Fatal("reopened liveness disagrees with the landed snapshot")
	}
}

// TestTakeDirtyBitsAscending checks the snapshot lists each dirtied word
// once, in ascending index order, whatever order the slots changed in.
func TestTakeDirtyBitsAscending(t *testing.T) {
	a := NewArena(nvbm.New(nvbm.NVBM, 0), 8)
	a.AllocRun(64 * 200)
	a.TakeDirtyBits(nil)
	for k, wi := range []int{150, 3, 77, 3, 199, 64, 0, 150} {
		a.Free(Handle(64*wi + k + 1)) // slot 64*wi+k lies in word wi
	}
	words, _ := a.TakeDirtyBits(nil)
	want := []int{0, 3, 64, 77, 150, 199}
	if len(words) != len(want) {
		t.Fatalf("took %d words, want %d", len(words), len(want))
	}
	for i, w := range words {
		if w.Index != want[i] || w.Val != a.LiveWords()[w.Index] {
			t.Fatalf("word %d = %+v, want index %d holding the mirror", i, w, want[i])
		}
	}
}

// TestWriteBitsRejectsUnsorted pins the landing contract: WriteBitsExclusive
// takes one TakeDirtyBits snapshot, ascending and without repeats, and
// panics on a repeated or descending word before it stores anything, so a
// concatenation of snapshots can never land an older value of a word over
// a newer one.
func TestWriteBitsRejectsUnsorted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		words []BitWord
	}{
		{"repeat", []BitWord{{0, 1}, {0, 3}}},
		{"descending", []BitWord{{5, 1}, {2, 1}}},
		{"repeat after a gap", []BitWord{{1, 1}, {4, 1}, {4, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvbm.New(nvbm.NVBM, 0)
			a := NewArena(dev, 88)
			st := dev.Stats()
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "must ascend without repeats") {
						t.Fatalf("recovered %q, want the ascending-words panic", msg)
					}
				}()
				a.WriteBitsExclusive(tc.words, 300)
			}()
			if st := dev.Stats().Sub(st); st.Writes != 0 {
				t.Fatalf("a rejected landing stored %d writes", st.Writes)
			}
		})
	}
}
