package recovery

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pmoctree/internal/nvbm"
)

// Frame is one checksummed replica-delta message: the LineSize-granular
// lines of the primary's persistent region that changed since the last
// successful sync, plus a CRC-32 the receiver verifies before applying.
// Only the modeled wire size travels through the network model; the
// payload itself is applied locally after a successful Ship.
type Frame struct {
	Seq     uint64 // sync sequence number, detects stale frames
	Size    int    // the primary's region size in bytes; the replica grows to it
	Lines   []int  // line indices, ascending
	Payload []byte // len(Lines) * LineSize bytes, line contents in order
	CRC     uint32 // CRC-32 (IEEE) over header + line list + payload
}

// frameHeaderBytes is the modeled fixed overhead of one frame on the
// wire: magic+seq+count (16), the region size (4) and the trailing CRC (4).
const frameHeaderBytes = 24

// buildFrame assembles the delta frame for the given lines of src.
func buildFrame(src *nvbm.Device, lines []int, seq uint64) *Frame {
	b := src.Bytes()
	f := &Frame{Seq: seq, Size: len(b), Lines: lines}
	f.Payload = make([]byte, 0, len(lines)*nvbm.LineSize)
	for _, line := range lines {
		lo := line * nvbm.LineSize
		hi := min(lo+nvbm.LineSize, len(b))
		chunk := make([]byte, nvbm.LineSize)
		if lo < hi {
			copy(chunk, b[lo:hi])
		}
		f.Payload = append(f.Payload, chunk...)
	}
	f.Seal()
	return f
}

// WireBytes returns the modeled on-wire size of the frame: header and
// checksum, an 8-byte index per line, and the line contents.
func (f *Frame) WireBytes() int {
	return frameHeaderBytes + len(f.Lines)*8 + len(f.Payload)
}

// checksum covers the sequence number, the line list, and the payload, so
// neither reordered indices nor damaged contents verify.
func (f *Frame) checksum() uint32 {
	h := crc32.NewIEEE()
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], f.Seq)
	h.Write(u[:])
	binary.LittleEndian.PutUint64(u[:], uint64(f.Size))
	h.Write(u[:])
	for _, line := range f.Lines {
		binary.LittleEndian.PutUint64(u[:], uint64(line))
		h.Write(u[:])
	}
	h.Write(f.Payload)
	return h.Sum32()
}

// Seal stamps the frame's checksum.
func (f *Frame) Seal() { f.CRC = f.checksum() }

// Verify reports whether the frame's contents match its checksum — the
// receiver-side integrity check before a delta is applied.
func (f *Frame) Verify() bool { return f.CRC == f.checksum() }

// FrameError reports a delta frame a replica refused; the replica is left
// as it was.
type FrameError struct {
	Seq    uint64 // the frame's sequence number, as received
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("recovery: replica refused delta frame seq %d: %s", e.Seq, e.Reason)
}

// applyFrame is the replica side of a sync: it refuses a frame that fails
// its checksum, is not newer than lastSeq (the last frame it applied), or
// whose line list is not strictly ascending, reaches past the region size
// or disagrees with the payload length — and otherwise applies the frame's
// payload to replica.
func applyFrame(replica *nvbm.Device, f *Frame, lastSeq uint64) error {
	refuse := func(reason string) error { return &FrameError{Seq: f.Seq, Reason: reason} }
	if !f.Verify() {
		return refuse("checksum mismatch")
	}
	if f.Seq <= lastSeq {
		return refuse(fmt.Sprintf("stale: last applied seq %d", lastSeq))
	}
	if len(f.Payload) != len(f.Lines)*nvbm.LineSize {
		return refuse(fmt.Sprintf("payload of %d bytes for %d lines", len(f.Payload), len(f.Lines)))
	}
	regionLines := (f.Size + nvbm.LineSize - 1) / nvbm.LineSize
	for i, line := range f.Lines {
		if line < 0 || line >= regionLines || (i > 0 && line <= f.Lines[i-1]) {
			return refuse(fmt.Sprintf("line %d out of order or past the %d-byte region", line, f.Size))
		}
	}
	replica.ApplyLines(f.Size, f.Lines, f.Payload)
	return nil
}
