package bulk

import (
	"math/bits"

	"pmoctree/internal/morton"
)

// ComplementCover returns the minimal set of octants tiling everything the
// given leaves do not cover. The input must be sorted and pairwise
// disjoint (the order Construct and Balance return); the result is sorted
// and disjoint from the input, so input + cover together form a partition
// of the domain that Construct accepts.
//
// Shard materialization is the caller: a shard keeps the real leaves of
// its key span and plugs the rest of the domain with these zero-payload
// fillers, so the per-shard arena stays a valid complete octree while
// holding only its span's data.
func ComplementCover(leaves []morton.Code) []morton.Code {
	var out []morton.Code
	next := uint64(0)
	for _, c := range leaves {
		start := uint64(c) >> 6
		if start > next {
			out = appendCover(out, next, start)
		}
		next = start + cellVolume(c.Level())
	}
	if next < totalCells {
		out = appendCover(out, next, totalCells)
	}
	return out
}

// appendCover tiles the half-open cell range [lo, hi) with the fewest
// octants, greedily emitting at each position the largest aligned block
// that fits: alignment allows 8^p blocks where 3p trailing zero bits of lo
// are free, and the block must not overshoot hi.
func appendCover(out []morton.Code, lo, hi uint64) []morton.Code {
	for lo < hi {
		p := morton.MaxLevel
		if lo != 0 {
			if tz := bits.TrailingZeros64(lo) / 3; tz < p {
				p = tz
			}
		}
		for uint64(1)<<(3*p) > hi-lo {
			p--
		}
		out = append(out, morton.Code(lo<<6|uint64(morton.MaxLevel-p)))
		lo += uint64(1) << (3 * p)
	}
	return out
}
