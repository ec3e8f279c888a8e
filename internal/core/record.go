package core

import (
	"encoding/binary"
	"math"

	"pmoctree/internal/morton"
)

// DataWords is the number of float64 field values carried per octant.
const DataWords = 4

// Octant is the decoded in-register view of one octant record. It is a
// value type: mutating it does not touch the arena until written back.
type Octant struct {
	Code     morton.Code
	Parent   Ref
	Flags    uint32
	Children [8]Ref
	Data     [DataWords]float64
	Version  uint64 // time step that created this physical octant
}

// Octant flag bits.
const (
	// FlagDeleted marks an octant unlinked from the working version and
	// awaiting garbage collection (deferred deletion, §3.2).
	FlagDeleted uint32 = 1 << 0
	// FlagFiller marks a leaf that only completes the octree of a tree
	// holding part of a mesh (ConstructWithFillers): its payload is not
	// data, and readers must not answer from it.
	FlagFiller uint32 = 1 << 1
)

// Record layout (little-endian, RecordSize bytes; arena format PMARENA4):
//
//	 0  code     uint64 (morton.Code, curve-ordered)
//	 8  parent   uint32 (Ref)
//	12  flags    uint32
//	16  children [8]uint32 (Ref)
//	48  data     [DataWords]float64
//	80  version  uint64
const (
	offCode     = 0
	offParent   = 8
	offFlags    = 12
	offChildren = 16
	offData     = 48
	offVersion  = 48 + 8*DataWords

	// RecordSize is the serialized octant size in bytes.
	RecordSize = offVersion + 8
)

// encode serializes o into buf, which must be at least RecordSize bytes.
func (o *Octant) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[offCode:], uint64(o.Code))
	binary.LittleEndian.PutUint32(buf[offParent:], uint32(o.Parent))
	binary.LittleEndian.PutUint32(buf[offFlags:], o.Flags)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(buf[offChildren+4*i:], uint32(o.Children[i]))
	}
	for i := 0; i < DataWords; i++ {
		binary.LittleEndian.PutUint64(buf[offData+8*i:], math.Float64bits(o.Data[i]))
	}
	binary.LittleEndian.PutUint64(buf[offVersion:], o.Version)
}

// decode deserializes o from buf.
func (o *Octant) decode(buf []byte) {
	o.Code = morton.Code(binary.LittleEndian.Uint64(buf[offCode:]))
	o.Parent = Ref(binary.LittleEndian.Uint32(buf[offParent:]))
	o.Flags = binary.LittleEndian.Uint32(buf[offFlags:])
	for i := 0; i < 8; i++ {
		o.Children[i] = Ref(binary.LittleEndian.Uint32(buf[offChildren+4*i:]))
	}
	for i := 0; i < DataWords; i++ {
		o.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[offData+8*i:]))
	}
	o.Version = binary.LittleEndian.Uint64(buf[offVersion:])
}

// IsLeaf reports whether the octant has no children.
func (o *Octant) IsLeaf() bool {
	for _, c := range o.Children {
		if !c.IsNil() {
			return false
		}
	}
	return true
}

// Filler reports whether the octant is a filler leaf.
func (o *Octant) Filler() bool { return o.Flags&FlagFiller != 0 }
