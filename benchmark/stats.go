package main

import (
	"math"
	"sort"
)

// minPerIndex returns, for every item index, the smallest value any pass
// measured for it. Every pass does bit-identical work, so the minimum is the
// run of that item least disturbed by the machine's other tenants.
func minPerIndex(passes [][]int64) []int64 {
	if len(passes) == 0 {
		return nil
	}
	out := append([]int64(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i, v := range p {
			if i < len(out) && v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// chunks cuts every row into rows of n items: a pass that runs its items
// several times over contributes one row per repetition, so that minPerIndex
// sees every copy of an item.
func chunks(rows [][]int64, n int) [][]int64 {
	var out [][]int64
	for _, r := range rows {
		for ; len(r) >= n; r = r[n:] {
			out = append(out, r[:n])
		}
	}
	return out
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// percentile returns the p-quantile (p in [0,1]) of v by linear interpolation
// between closest ranks; 0 for an empty slice. v is not modified.
func percentile[T int64 | float64](v []T, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

func median[T int64 | float64](v []T) float64 { return percentile(v, 0.5) }

// pick returns the elements of v whose index satisfies keep.
func pick(v []int64, keep func(i int) bool) []int64 {
	var out []int64
	for i, x := range v {
		if keep(i) {
			out = append(out, x)
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
