package main

import (
	"encoding/json"
	"fmt"
	"math"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
)

// refSet is a flat copy of one version's leaves. Answers are replayed
// against it by linear scan — no index, no key arithmetic shared with serve —
// so a served answer that agrees was not checked against itself.
type refSet []refLeaf

type refLeaf struct {
	code morton.Code
	data leafData
	min  [3]float64
	ext  float64
}

func newRefLeaf(c morton.Code, d leafData) refLeaf {
	x, y, z := c.Center()
	e := c.Extent()
	return refLeaf{code: c, data: d, min: [3]float64{x - e/2, y - e/2, z - e/2}, ext: e}
}

func refOf(ls leafSet) refSet {
	rs := make(refSet, len(ls.codes))
	for i, c := range ls.codes {
		rs[i] = newRefLeaf(c, ls.data[i])
	}
	return rs
}

// captureRef copies the working version's leaves; call it right after a
// Persist, when working and committed versions hold the same content.
func captureRef(t *core.Tree) refSet {
	rs := make(refSet, 0, t.LeafCount())
	t.ForEachLeaf(func(c morton.Code, d leafData) bool {
		rs = append(rs, newRefLeaf(c, d))
		return true
	})
	return rs
}

func (l refLeaf) contains(p [3]float64) bool {
	for d := 0; d < 3; d++ {
		if p[d] < l.min[d] || p[d] >= l.min[d]+l.ext {
			return false
		}
	}
	return true
}

func (l refLeaf) overlaps(lo, hi [3]float64) bool {
	for d := 0; d < 3; d++ {
		if l.min[d] >= hi[d] || lo[d] >= l.min[d]+l.ext {
			return false
		}
	}
	return true
}

// answer is the union of the point, region and aggregate response bodies of
// serve and router (the router adds the degraded flag).
type answer struct {
	Version uint64   `json:"version"`
	Code    string   `json:"code"`
	Data    leafData `json:"data"`
	Count   int      `json:"count"`
	Leaves  []struct {
		Code string   `json:"code"`
		Data leafData `json:"data"`
	} `json:"leaves"`
	Sum      float64 `json:"sum"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	VolSum   float64 `json:"vol_sum"`
	Degraded bool    `json:"degraded"`
}

// near compares two sums of the same terms added in different orders; scale
// is the sum of the terms' magnitudes.
func near(a, b, scale float64) bool { return a == b || math.Abs(a-b) <= 1e-9*scale }

// check replays q against the reference leaves of the version it was served
// from and reports the first disagreement. A routed aggregate adds per-shard
// partial sums, so sums are compared to rounding, everything else exactly.
func (rs refSet) check(q query, body []byte, version uint64) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("undecodable body: %v", err)
	}
	if a.Degraded {
		return fmt.Errorf("degraded answer")
	}
	if version != 0 && a.Version != version {
		return fmt.Errorf("served version %d, asked %d", a.Version, version)
	}
	switch q.class {
	case classPoint:
		for _, l := range rs {
			if l.contains(q.p) {
				if a.Code != l.code.String() || a.Data != l.data {
					return fmt.Errorf("point %v: got %s %v, want %s %v", q.p, a.Code, a.Data, l.code, l.data)
				}
				return nil
			}
		}
		return fmt.Errorf("point %v: no reference leaf contains it", q.p)
	case classRegion:
		n := 0
		for _, l := range rs {
			if !l.overlaps(q.box.Min, q.box.Max) {
				continue
			}
			if n < len(a.Leaves) && (a.Leaves[n].Code != l.code.String() || a.Leaves[n].Data != l.data) {
				return fmt.Errorf("region %v: hit %d is %s, want %s", q.box, n, a.Leaves[n].Code, l.code)
			}
			n++
		}
		if a.Count != n || len(a.Leaves) != n {
			return fmt.Errorf("region %v: %d hits (%d listed), want %d", q.box, a.Count, len(a.Leaves), n)
		}
	case classAgg:
		n, sum, vol, sumAbs, volAbs := 0, 0.0, 0.0, 0.0, 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, l := range rs {
			if !l.overlaps(q.box.Min, q.box.Max) {
				continue
			}
			v := l.data[q.field]
			n++
			sum += v
			vol += v * l.ext * l.ext * l.ext
			sumAbs += math.Abs(v)
			volAbs += math.Abs(v) * l.ext * l.ext * l.ext
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if a.Count != n || a.Min != lo || a.Max != hi || !near(a.Sum, sum, sumAbs) || !near(a.VolSum, vol, volAbs) {
			return fmt.Errorf("agg %v field %d: got n=%d sum=%g min=%g max=%g vol=%g, want n=%d sum=%g min=%g max=%g vol=%g",
				q.box, q.field, a.Count, a.Sum, a.Min, a.Max, a.VolSum, n, sum, lo, hi, vol)
		}
	}
	return nil
}
