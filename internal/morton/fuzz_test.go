package morton

import (
	"strings"
	"testing"
)

// FuzzCodeRoundTrip takes raw as a code word and as the legacy form of a
// valid code. As a code word, Valid must hold exactly when re-encoding its
// decoded anchor and level gives it back. As a legacy word masked into a
// valid code (the level from the low 6 bits, the Morton bits cut to that
// level's grid), every mask operation must match the decode-based oracle,
// against a second code from the rotated word and a long offset from its
// top bytes.
func FuzzCodeRoundTrip(f *testing.F) {
	last := uint32(1)<<MaxLevel - 1
	corner := Encode(last, last, last, MaxLevel)
	for _, raw := range []uint64{
		0, 1<<63 - 1, 0xdeadbeef, ^uint64(0), MaxLevel, MaxLevel + 1,
		// The far-corner MaxLevel cell as a code and in legacy form, the
		// origin MaxLevel cell, a level-1 word with a stray bit below its
		// triple, and the root with bit 63 set.
		uint64(corner), uint64(legacyOf(corner)), uint64(Encode(0, 0, 0, MaxLevel)),
		uint64(Root.Child(5)) | 1<<6, 1 << 63,
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw uint64) {
		c := Code(raw)
		x, y, z, l := c.Decode()
		reencodes := l <= MaxLevel && max(x, y, z) < uint32(1)<<l && Encode(x, y, z, l) == c
		if c.Valid() != reencodes {
			t.Fatalf("Valid(%#x) = %v, but re-encoding its decode gives it back: %v", raw, c.Valid(), reencodes)
		}

		valid := func(w uint64) Code {
			l := uint8(w&0x3f) % (MaxLevel + 1)
			return legacy(w>>6&(1<<(3*l)-1)<<6 | uint64(l)).key()
		}
		a, b := valid(raw), valid(raw<<29|raw>>35)
		if !a.Valid() || !b.Valid() {
			t.Fatalf("masked codes %#x, %#x are not valid", uint64(a), uint64(b))
		}
		x, y, z, l = a.Decode()
		if Encode(x, y, z, l) != a {
			t.Fatalf("decode/encode round trip of %v failed", a)
		}
		d := [3]int{int(int8(raw >> 56)), int(int8(raw >> 48)), int(int8(raw >> 40))}
		checkOracle(t, a, b, d)
		checkOracle(t, b, a, d)
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
