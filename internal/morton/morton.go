// Package morton implements 3-D locational codes for octrees.
//
// A Code packs an octant's level and the Morton (Z-order) interleave of its
// anchor coordinates into one uint64. Locational codes identify octants
// globally: the out-of-core baseline uses them as B-tree keys (the Etree
// "Z-value"), PM-octree uses them to route insertions to C0 or C1, and the
// partitioner splits the space-filling curve into per-rank ranges.
package morton

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxLevel is the deepest supported octree level. 3*19 Morton bits plus 6
// level bits fit in 63 bits.
const MaxLevel = 19

// Code is a level-prefixed locational code:
//
//	code = morton(x, y, z) << 6 | level
//
// where x, y, z are the octant's anchor coordinates on the 2^level grid of
// its level. The root octant is Code(0) (level 0 at the origin).
type Code uint64

// Root is the locational code of the root octant.
const Root Code = 0

// Encode builds the code for the octant at anchor (x, y, z) on the 2^level
// grid. It panics if the coordinates do not fit the level.
func Encode(x, y, z uint32, level uint8) Code {
	if level > MaxLevel {
		panic(fmt.Sprintf("morton: level %d exceeds max %d", level, MaxLevel))
	}
	limit := uint32(1) << level
	if x >= limit || y >= limit || z >= limit {
		panic(fmt.Sprintf("morton: coordinate (%d,%d,%d) outside level-%d grid", x, y, z, level))
	}
	return Code(interleave(x, y, z))<<6 | Code(level)
}

// Decode returns the anchor coordinates and level of c.
func (c Code) Decode() (x, y, z uint32, level uint8) {
	level = uint8(c & 0x3f)
	x, y, z = deinterleave(uint64(c >> 6))
	return
}

// Level returns the octree level of c (root is 0).
func (c Code) Level() uint8 { return uint8(c & 0x3f) }

// morton returns the raw interleaved bits.
func (c Code) morton() uint64 { return uint64(c >> 6) }

// Parent returns the code of c's parent octant. Parent of the root is the
// root itself.
func (c Code) Parent() Code {
	l := c.Level()
	if l == 0 {
		return c
	}
	return Code(c.morton()>>3)<<6 | Code(l-1)
}

// Child returns the code of child i (0..7) of c. Child index bits are
// (zbit<<2 | ybit<<1 | xbit), matching the interleave order.
func (c Code) Child(i int) Code {
	if i < 0 || i > 7 {
		panic(fmt.Sprintf("morton: child index %d out of range", i))
	}
	l := c.Level()
	if l >= MaxLevel {
		panic(fmt.Sprintf("morton: cannot descend below level %d", MaxLevel))
	}
	return Code(c.morton()<<3|uint64(i))<<6 | Code(l+1)
}

// ChildIndex returns which child of its parent c is (0..7). The root
// returns 0.
func (c Code) ChildIndex() int {
	if c.Level() == 0 {
		return 0
	}
	return int(c.morton() & 7)
}

// IsAncestorOf reports whether c strictly contains other (other is deeper
// and shares c's path prefix).
func (c Code) IsAncestorOf(other Code) bool {
	cl, ol := c.Level(), other.Level()
	if ol <= cl {
		return false
	}
	return other.morton()>>(3*(ol-cl)) == c.morton()
}

// Contains reports whether the spatial region of c includes that of other
// (equal or descendant).
func (c Code) Contains(other Code) bool {
	return c == other || c.IsAncestorOf(other)
}

// AncestorAt returns c's ancestor at the given (shallower or equal) level.
func (c Code) AncestorAt(level uint8) Code {
	cl := c.Level()
	if level > cl {
		panic(fmt.Sprintf("morton: level %d deeper than code level %d", level, cl))
	}
	return Code(c.morton()>>(3*(cl-level)))<<6 | Code(level)
}

// Less orders codes along the space-filling curve: pre-order traversal
// position, with ancestors before descendants. This is the Etree ordering.
func (c Code) Less(other Code) bool {
	cl, ol := c.Level(), other.Level()
	// Align both morton keys to MaxLevel resolution so interleaved bits
	// compare positionally.
	ck := c.morton() << (3 * (MaxLevel - cl))
	ok := other.morton() << (3 * (MaxLevel - ol))
	if ck != ok {
		return ck < ok
	}
	return cl < ol // ancestor first
}

// Key returns a uint64 whose natural integer order equals the Less
// (space-filling-curve pre-order) ordering: the Morton bits are
// left-aligned to MaxLevel resolution and the level occupies the low 6
// bits as a tie-breaker (ancestors first). This is the Etree "Z-value"
// trick: a plain B-tree over Keys stores octants in traversal order.
func (c Code) Key() uint64 {
	l, m := uint64(c)&0x3f, uint64(c)&^0x3f
	if l > MaxLevel {
		m = 0 // alignment shifts out every Morton bit of an invalid level
	}
	// The mask proves the shift below 64, which spares the compiler's
	// oversized-shift guard on this hot path.
	return m<<(3*(MaxLevel-l)&63) | l
}

// KeySpan returns the inclusive range of Keys covered by c and all of its
// descendants. Space-filling-curve partitioners assign each rank a key
// interval; an octant belongs to every rank whose interval its span
// overlaps.
func (c Code) KeySpan() (lo, hi uint64) {
	lo = c.Key() // ancestors sort first, so c itself is the minimum
	shift := 3 * (MaxLevel - c.Level())
	hi = (c.morton()<<shift|(uint64(1)<<shift-1))<<6 | uint64(MaxLevel)
	return
}

// FromKey inverts Key.
func FromKey(k uint64) Code {
	level := uint8(k & 0x3f)
	m := (k >> 6) >> (3 * (MaxLevel - level))
	return Code(m)<<6 | Code(level)
}

// Compare returns -1, 0, or +1 in the Less ordering.
func (c Code) Compare(other Code) int {
	switch {
	case c == other:
		return 0
	case c.Less(other):
		return -1
	default:
		return 1
	}
}

// Neighbor returns the same-level octant displaced by (dx, dy, dz) grid
// steps, and false if that would leave the domain.
func (c Code) Neighbor(dx, dy, dz int) (Code, bool) {
	x, y, z, l := c.Decode()
	limit := int64(1) << l
	nx, ny, nz := int64(x)+int64(dx), int64(y)+int64(dy), int64(z)+int64(dz)
	if nx < 0 || ny < 0 || nz < 0 || nx >= limit || ny >= limit || nz >= limit {
		return 0, false
	}
	return Encode(uint32(nx), uint32(ny), uint32(nz), l), true
}

// FaceNeighbors appends the up-to-6 face neighbors of c to dst and returns
// it. The 2:1 balance condition is enforced across faces.
func (c Code) FaceNeighbors(dst []Code) []Code {
	for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
		if n, ok := c.Neighbor(d[0], d[1], d[2]); ok {
			dst = append(dst, n)
		}
	}
	return dst
}

// AllNeighbors appends the up-to-26 face, edge and corner neighbors of c to
// dst and returns it. The linear-octree balance in the out-of-core baseline
// must probe all 26 (§5.4 of the paper).
func (c Code) AllNeighbors(dst []Code) []Code {
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				if n, ok := c.Neighbor(dx, dy, dz); ok {
					dst = append(dst, n)
				}
			}
		}
	}
	return dst
}

// String renders the code as L<level>:(<x>,<y>,<z>), the form wire formats
// carry and ParseCode reads back.
func (c Code) String() string {
	x, y, z, l := c.Decode()
	var buf [48]byte
	b := append(buf[:0], 'L')
	b = strconv.AppendUint(b, uint64(l), 10)
	b = append(b, ':', '(')
	b = strconv.AppendUint(b, uint64(x), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(y), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(z), 10)
	return string(append(b, ')'))
}

// ParseCode inverts String: "L3:(1,4,2)" parses to the code of the
// level-3 octant anchored at (1,4,2). Wire formats (the serve HTTP
// responses) carry codes in String form; distributed clients parse them
// back with this. It accepts exactly the strings String emits for valid
// codes: no signs, spaces, leading zeros or trailing bytes.
func ParseCode(s string) (Code, error) {
	var v [4]uint32 // level, x, y, z
	rest, ok := strings.CutPrefix(s, "L")
	for i, sep := range [...]string{":(", ",", ",", ")"} {
		// A decimal number of at most 7 digits without a leading zero.
		n := 0
		for ; ok && n < min(len(rest), 7) && '0' <= rest[n] && rest[n] <= '9'; n++ {
			v[i] = 10*v[i] + uint32(rest[n]-'0')
		}
		if ok = ok && n > 0 && (n == 1 || rest[0] != '0'); ok {
			rest, ok = strings.CutPrefix(rest[n:], sep)
		}
	}
	if !ok || rest != "" {
		return 0, parseError(s, "want L<level>:(<x>,<y>,<z>)")
	}
	l, x, y, z := v[0], v[1], v[2], v[3]
	if l > MaxLevel {
		return 0, parseError(s, "level exceeds "+strconv.Itoa(MaxLevel))
	}
	if limit := uint32(1) << l; x >= limit || y >= limit || z >= limit {
		return 0, parseError(s, "anchor outside its level's grid")
	}
	return Encode(x, y, z, uint8(l)), nil
}

func parseError(s, why string) error {
	return errors.New("morton: cannot parse code " + strconv.Quote(s) + ": " + why)
}

// Cover returns the smallest octant containing the MaxLevel cells lo and
// hi (anchor coordinates on the finest grid): the common ancestor of the
// two cells, which contains every cell of the box they span.
func Cover(lo, hi [3]uint32) Code {
	shift := bits.Len32((lo[0] ^ hi[0]) | (lo[1] ^ hi[1]) | (lo[2] ^ hi[2]))
	return Encode(lo[0]>>shift, lo[1]>>shift, lo[2]>>shift, uint8(MaxLevel-shift))
}

// CommonLevel returns the level of the deepest octant containing both a and
// b: the count of leading bit-triples their MaxLevel-aligned Morton keys
// share, capped at the shallower level (an ancestor contains itself). For
// two distinct, non-nesting codes it is strictly shallower than either.
func CommonLevel(a, b Code) uint8 {
	shared := uint8((3*MaxLevel - bits.Len64((a.Key()^b.Key())>>6)) / 3)
	return min(shared, a.Level(), b.Level())
}

// Center returns the octant's center in the unit cube [0,1)^3.
func (c Code) Center() (cx, cy, cz float64) {
	x, y, z, l := c.Decode()
	h := 1.0 / float64(uint64(1)<<l)
	return (float64(x) + 0.5) * h, (float64(y) + 0.5) * h, (float64(z) + 0.5) * h
}

// Extent returns the octant's edge length in the unit cube.
func (c Code) Extent() float64 {
	return 1.0 / float64(uint64(1)<<c.Level())
}

// interleave spreads the low 21 bits of x, y, z into a 63-bit Morton key
// with x in bit 0, y in bit 1, z in bit 2 of each triple.
func interleave(x, y, z uint32) uint64 {
	return part1by2(x) | part1by2(y)<<1 | part1by2(z)<<2
}

func deinterleave(m uint64) (x, y, z uint32) {
	return compact1by2(m), compact1by2(m >> 1), compact1by2(m >> 2)
}

// part1by2 inserts two zero bits between each of the low 21 bits of v.
func part1by2(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact1by2 is the inverse of part1by2.
func compact1by2(x uint64) uint32 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x1f0000ff0000ff
	x = (x ^ x>>16) & 0x1f00000000ffff
	x = (x ^ x>>32) & 0x1fffff
	return uint32(x)
}
