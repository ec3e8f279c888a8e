package pmem

import (
	"fmt"
	"testing"

	"pmoctree/internal/nvbm"
)

// TestArenaZeroBufEagerInit pins the satellite fix directly: the zeroing
// buffer exists before the first Alloc, so a reader goroutine sharing the
// Arena never races a lazy first-use field store.
func TestArenaZeroBufEagerInit(t *testing.T) {
	for _, mk := range []struct {
		name string
		a    func() *Arena
	}{
		{"NewArena", func() *Arena { return NewArena(nvbm.New(nvbm.NVBM, 0), 88) }},
		{"OpenArena", func() *Arena {
			dev := nvbm.New(nvbm.NVBM, 0)
			NewArena(dev, 88)
			a, err := OpenArena(dev)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			a := mk.a()
			if a.zeroBuf == nil || len(a.zeroBuf) != a.slotSize {
				t.Fatalf("zeroBuf not eagerly sized: %d, want %d", len(a.zeroBuf), a.slotSize)
			}
			for i, b := range a.zeroBuf {
				if b != 0 {
					t.Fatalf("zeroBuf[%d] = %d, want 0", i, b)
				}
			}
			_ = fmt.Sprint(a.Alloc()) // first Alloc must not reinitialize it
		})
	}
}
