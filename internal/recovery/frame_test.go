package recovery

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/nvbm"
)

func TestFrameSealVerify(t *testing.T) {
	src := nvbm.New(nvbm.NVBM, 3*nvbm.LineSize)
	src.WriteAt(0, []byte("frame payload under test"))
	f := buildFrame(src, []int{0, 2}, 7)
	if !f.Verify() {
		t.Fatal("freshly sealed frame does not verify")
	}
	if want := frameHeaderBytes + 2*8 + 2*nvbm.LineSize; f.WireBytes() != want {
		t.Errorf("WireBytes = %d, want %d", f.WireBytes(), want)
	}

	f.Payload[5] ^= 0x40
	if f.Verify() {
		t.Error("damaged payload verifies")
	}
	f.Payload[5] ^= 0x40
	if !f.Verify() {
		t.Fatal("repaired payload should verify again")
	}

	f.Lines[0], f.Lines[1] = f.Lines[1], f.Lines[0]
	if f.Verify() {
		t.Error("reordered line indices verify")
	}
	f.Lines[0], f.Lines[1] = f.Lines[1], f.Lines[0]

	f.Seq++
	if f.Verify() {
		t.Error("altered sequence number verifies")
	}
}

// TestFramePartialTailLine: a device whose size is not line-aligned still
// frames its final line, zero-padded to LineSize.
func TestFramePartialTailLine(t *testing.T) {
	src := nvbm.New(nvbm.NVBM, nvbm.LineSize+8)
	src.WriteAt(nvbm.LineSize, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f := buildFrame(src, []int{1}, 1)
	if len(f.Payload) != nvbm.LineSize {
		t.Fatalf("payload = %d bytes, want a full padded line", len(f.Payload))
	}
	if f.Payload[0] != 1 || f.Payload[8] != 0 {
		t.Error("tail line contents or padding wrong")
	}
	if !f.Verify() {
		t.Error("padded frame does not verify")
	}
}

// FuzzDeltaFrame mutates a sealed delta frame — its line list, payload,
// sequence number or region size — and hands it to the replica side: a
// changed frame is refused with a *FrameError and leaves the replica
// untouched, never panicking; the frame as sealed still applies, and
// replaying it is refused as stale.
func FuzzDeltaFrame(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 0x40})
	f.Add(int64(2), []byte{1, 1, 0x02})
	f.Add(int64(3), []byte{2, 0, 0x80})
	f.Add(int64(4), []byte{3, 2, 0})
	f.Add(int64(5), []byte{4, 0, 7})
	f.Add(int64(6), []byte{5, 1, 0})
	f.Add(int64(7), []byte{6, 9, 1, 0, 40, 0x10})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		primary := nvbm.New(nvbm.NVBM, (4+rng.Intn(12))*nvbm.LineSize+rng.Intn(nvbm.LineSize))
		scribble := func() {
			for k := 0; k < 4; k++ {
				off := rng.Intn(primary.Size())
				primary.WriteAt(off, []byte{byte(rng.Intn(255) + 1)})
			}
		}
		replica := nvbm.New(nvbm.NVBM, 0)
		scribble()
		if err := applyFrame(replica, buildFrame(primary, primary.DiffLines(replica), 1), 0); err != nil {
			t.Fatalf("first frame refused: %v", err)
		}
		scribble()
		lines := primary.DiffLines(replica)
		if len(lines) == 0 {
			return
		}
		sealed := buildFrame(primary, lines, 2)
		bad := &Frame{Seq: sealed.Seq, Size: sealed.Size, Lines: slices.Clone(sealed.Lines),
			Payload: slices.Clone(sealed.Payload), CRC: sealed.CRC}
		for i := 0; i+2 < len(ops); i += 3 {
			at, v := int(ops[i+1]), ops[i+2]
			switch ops[i] % 7 {
			case 0:
				if len(bad.Payload) > 0 {
					bad.Payload[at%len(bad.Payload)] ^= v
				}
			case 1:
				if len(bad.Lines) > 0 {
					bad.Lines[at%len(bad.Lines)] ^= int(v) << (8 * (at % 3))
				}
			case 2:
				bad.Seq ^= uint64(v) << (8 * (at % 8))
			case 3:
				if len(bad.Lines) > 0 {
					j := at % len(bad.Lines)
					bad.Lines = append(bad.Lines[:j], bad.Lines[j+1:]...)
				}
			case 4:
				if len(bad.Payload) > 0 {
					bad.Payload = bad.Payload[:at%len(bad.Payload)]
				}
			case 5:
				if n := len(bad.Lines); n > 1 {
					j, k := at%n, int(v)%n
					bad.Lines[j], bad.Lines[k] = bad.Lines[k], bad.Lines[j]
				}
			case 6:
				bad.Size ^= int(v) << (8 * (at % 3))
			}
		}
		changed := bad.Seq != sealed.Seq || bad.Size != sealed.Size ||
			!slices.Equal(bad.Lines, sealed.Lines) || !bytes.Equal(bad.Payload, sealed.Payload)
		before := replica.Bytes()
		if changed {
			err := applyFrame(replica, bad, 1)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("mutated frame (seq %d, size %d, %d lines, %d payload bytes): got %v, want a *FrameError",
					bad.Seq, bad.Size, len(bad.Lines), len(bad.Payload), err)
			}
			if !bytes.Equal(replica.Bytes(), before) {
				t.Fatal("a refused frame changed the replica")
			}
		}
		if err := applyFrame(replica, sealed, 1); err != nil {
			t.Fatalf("sealed frame refused: %v", err)
		}
		if !bytes.Equal(replica.Bytes(), primary.Bytes()) {
			t.Fatal("replica differs from the primary after the sealed frame")
		}
		var fe *FrameError
		if err := applyFrame(replica, sealed, sealed.Seq); !errors.As(err, &fe) {
			t.Fatalf("replayed frame: got %v, want a *FrameError", err)
		}
	})
}

// A sealed frame whose checksum holds is still refused when its lines do
// not describe the region: each case is re-sealed after the change, so
// only the structural checks stand between it and the replica.
func TestApplyFrameRefusesMalformedSealedFrames(t *testing.T) {
	primary := nvbm.New(nvbm.NVBM, 6*nvbm.LineSize)
	primary.WriteAt(nvbm.LineSize, []byte{1})
	primary.WriteAt(4*nvbm.LineSize, []byte{2})
	for name, mutate := range map[string]func(f *Frame){
		"line past the region":  func(f *Frame) { f.Lines[1] = 6 },
		"overflowing line":      func(f *Frame) { f.Lines[1] = 1 << 58 },
		"negative line":         func(f *Frame) { f.Lines[0] = -1 },
		"lines out of order":    func(f *Frame) { f.Lines[0], f.Lines[1] = f.Lines[1], f.Lines[0] },
		"short payload":         func(f *Frame) { f.Payload = f.Payload[:nvbm.LineSize] },
		"region shrunk":         func(f *Frame) { f.Size = 2 * nvbm.LineSize },
		"sequence already seen": func(f *Frame) { f.Seq = 1 },
	} {
		replica := nvbm.New(nvbm.NVBM, 0)
		f := buildFrame(primary, []int{1, 4}, 2)
		mutate(f)
		f.Seal()
		var fe *FrameError
		if err := applyFrame(replica, f, 1); !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want a *FrameError", name, err)
		}
		if replica.Size() != 0 {
			t.Errorf("%s: the refused frame grew the replica to %d bytes", name, replica.Size())
		}
	}
}
