package pmem

import (
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

// TestArenaDeferredBitsLastWins pins the concatenation rule: when
// snapshots taken one after another both contain the same bitmap word,
// WriteBitsExclusive must land the LATER snapshot's value. (A
// regression here once let an unstable sort write a pre-allocation word
// value over the snapshot carrying a newly committed version's bits,
// leaving the flipped version referencing officially-free slots.)
func TestArenaDeferredBitsLastWins(t *testing.T) {
	dev := nvbm.New(nvbm.NVBM, 0)
	a := NewArena(dev, 88)

	h1 := a.AllocRaw() // slot 0
	snap1, hw1 := a.TakeDirtyBits(nil)
	h2 := a.AllocRaw() // slot 1, same bitmap word
	snap2, hw2 := a.TakeDirtyBits(nil)
	if hw2 <= hw1 {
		t.Fatalf("high water did not advance: %d then %d", hw1, hw2)
	}

	// Both snapshots in the order taken: the newest wins.
	a.WriteBitsExclusive(append(snap1, snap2...), hw2)
	b, err := OpenArena(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Live(h1) || !b.Live(h2) {
		t.Fatalf("reopened liveness h1=%v h2=%v, want both live (older snapshot must not shadow the newer)",
			b.Live(h1), b.Live(h2))
	}
}
