package morton

import (
	"strings"
	"testing"
)

// FuzzCodeRoundTrip exercises decode/re-encode and the derived operations
// on arbitrary 64-bit patterns masked into valid codes.
func FuzzCodeRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1<<63 - 1))
	f.Add(uint64(0xdeadbeef))
	// Boundary seeds: all-ones (max coordinates at whatever level the mask
	// picks), the max-corner MaxLevel cell's key and raw code, the origin
	// MaxLevel cell's raw code, and patterns landing exactly on the
	// level-field edges of the mask.
	f.Add(^uint64(0))
	last := uint32(1)<<MaxLevel - 1
	f.Add(uint64(Encode(last, last, last, MaxLevel)))
	f.Add(Encode(last, last, last, MaxLevel).Key())
	f.Add(uint64(Encode(0, 0, 0, MaxLevel)))
	f.Add(uint64(MaxLevel))
	f.Add(uint64(MaxLevel + 1))
	f.Fuzz(func(t *testing.T, raw uint64) {
		// Mask into a valid code: clamp the level and the morton bits.
		level := uint8(raw % (MaxLevel + 1))
		lim := uint32(1) << level
		x := uint32(raw>>6) % lim
		y := uint32(raw>>27) % lim
		z := uint32(raw>>45) % lim
		c := Encode(x, y, z, level)

		gx, gy, gz, gl := c.Decode()
		if gx != x || gy != y || gz != z || gl != level {
			t.Fatalf("decode mismatch: (%d,%d,%d,%d) != (%d,%d,%d,%d)", gx, gy, gz, gl, x, y, z, level)
		}
		if FromKey(c.Key()) != c {
			t.Fatal("key round trip failed")
		}
		lo, hi := c.KeySpan()
		if k := c.Key(); k < lo || k > hi {
			t.Fatal("own key outside key span")
		}
		if level > 0 {
			p := c.Parent()
			if !p.IsAncestorOf(c) {
				t.Fatal("parent not ancestor")
			}
			plo, phi := p.KeySpan()
			if lo < plo || hi > phi {
				t.Fatal("child span escapes parent span")
			}
			if p.Child(c.ChildIndex()) != c {
				t.Fatal("parent/child/index inconsistent")
			}
		}
		if level < MaxLevel {
			for i := 0; i < 8; i++ {
				if c.Child(i).Parent() != c {
					t.Fatalf("child %d parent mismatch", i)
				}
			}
		}
	})
}

// FuzzParseCode: ParseCode accepts exactly the strings String emits — any
// string that parses formats back to itself — and every rejection carries
// the "cannot parse code" prefix.
func FuzzParseCode(f *testing.F) {
	for _, s := range []string{"L0:(0,0,0)", "L3:(1,4,2)", "L19:(524287,524287,524287)",
		"L20:(0,0,0)", "L2:(4,0,0)", "L03:(1,1,1)", "L3:(+1,1,1)", "L3:( 1,1,1)", "L3:(1,1,1)x", "L4294967297:(0,0,0)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCode(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "morton: cannot parse code ") {
				t.Fatalf("ParseCode(%q) error %q lacks the parse prefix", s, err)
			}
			return
		}
		if got := c.String(); got != s {
			t.Fatalf("ParseCode(%q) = %v, which formats as %q", s, c, got)
		}
	})
}
