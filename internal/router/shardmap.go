// Package router is the fault-tolerant front tier over sharded PM-octree
// serving: it maps Z-order key spans onto shard backends (the Cornerstone
// layout — octree data distributed by Morton key ranges), scatter-gathers
// region and aggregate queries across the spans, and treats every failure
// mode as first-class behavior. Per-shard health is tracked with
// hysteresis, a circuit breaker gates each backend, retryable errors are
// retried with exponential backoff and seeded jitter under the request's
// own deadline, and hedged reads bound tail latency. Every shard serves a
// materialized arena holding only its own span (MaterializeShard), so
// when a shard's primary cannot serve, the router falls back to the
// shard's recovery replica, and then to a stale-but-available committed
// version with an explicit degraded/stale_version marker. The durable
// state, not the serving process, is the unit that survives (the
// NVTraverse framing): any surviving replica or fallback-ring version is
// instantly servable.
package router

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pmoctree/internal/morton"
	"pmoctree/internal/serve"
)

// maxCellKey is the largest key any cell can have: the last MaxLevel
// cell's code. Codes left-align the Morton bits and pack the level into
// the low 6 bits, so the populated key space is [0, maxCellKey] — well
// below math.MaxUint64 (bit 63 is never set).
func maxCellKey() uint64 {
	const last = uint32(1<<morton.MaxLevel - 1)
	return uint64(morton.Encode(last, last, last, morton.MaxLevel))
}

// UniformSpans splits the populated Z-order key space [0, maxCellKey]
// into n contiguous spans of equal width; the last span is extended to
// math.MaxUint64 so the map stays total over uint64. Morton keys are
// measure-preserving over the MaxLevel cell grid, so equal key width is
// equal spatial volume. Partitioning the populated range rather than
// all of uint64 matters: keys occupy only 63 bits, so splitting the
// full uint64 range would leave the high spans permanently empty.
func UniformSpans(n int) []serve.KeyRange {
	if n <= 0 {
		n = 1
	}
	width := maxCellKey()/uint64(n) + 1
	spans := make([]serve.KeyRange, n)
	lo := uint64(0)
	for i := 0; i < n; i++ {
		hi := lo + (width - 1)
		if i == n-1 || hi < lo {
			hi = math.MaxUint64
		}
		spans[i] = serve.KeyRange{Lo: lo, Hi: hi}
		lo = hi + 1
	}
	return spans
}

// ParseShardSpec parses "i/N" (0-based shard i of N) into shard i's
// uniform key span.
func ParseShardSpec(spec string) (serve.KeyRange, error) {
	parts := strings.Split(spec, "/")
	if len(parts) != 2 {
		return serve.KeyRange{}, fmt.Errorf("router: shard spec %q is not i/N", spec)
	}
	i, err1 := strconv.Atoi(parts[0])
	n, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || n <= 0 || i < 0 || i >= n {
		return serve.KeyRange{}, fmt.Errorf("router: shard spec %q needs 0 <= i < N", spec)
	}
	return UniformSpans(n)[i], nil
}

// ShardMap is the routing table: ascending, disjoint key spans covering
// the whole Z-order key space, one per shard.
type ShardMap struct {
	spans []serve.KeyRange
}

// NewShardMap validates that spans are ascending, disjoint, and cover
// the full key space.
func NewShardMap(spans []serve.KeyRange) (*ShardMap, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("router: shard map needs at least one span")
	}
	next := uint64(0)
	for i, kr := range spans {
		if kr.Lo != next {
			return nil, fmt.Errorf("router: span %d starts at %d, want %d (spans must be ascending, disjoint, and complete)", i, kr.Lo, next)
		}
		if kr.Hi < kr.Lo {
			return nil, fmt.Errorf("router: span %d is inverted", i)
		}
		if i == len(spans)-1 {
			if kr.Hi != math.MaxUint64 {
				return nil, fmt.Errorf("router: last span ends at %d, want the key-space maximum", kr.Hi)
			}
		} else {
			next = kr.Hi + 1
		}
	}
	return &ShardMap{spans: spans}, nil
}

// Len returns the shard count.
func (m *ShardMap) Len() int { return len(m.spans) }

// Span returns shard i's key span.
func (m *ShardMap) Span(i int) serve.KeyRange { return m.spans[i] }

// OwnerOf returns the shard whose span contains key k.
func (m *ShardMap) OwnerOf(k uint64) int {
	lo, hi := 0, len(m.spans)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.spans[mid].Hi < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CandidatesForBox returns the ascending shard ids that can own a leaf
// intersecting box. A leaf intersecting the box is either a descendant
// of the corner cells' lowest common ancestor a (its key inside
// a.KeySpan()) or an ancestor of a itself (one of at most MaxLevel
// distinct keys), so the candidate set is the spans overlapping
// a.KeySpan() plus the owners of each ancestor key — exact, no
// geometry-dependent misses. Ancestor keys rise with level and all come
// before a's span, so their owners, taken root first, never decrease and
// never pass the span's first owner: one ordered append builds the list.
func (m *ShardMap) CandidatesForBox(box serve.Box) ([]int, error) {
	clo, chi, err := box.Cover()
	if err != nil {
		return nil, err
	}
	a := morton.Cover(clo, chi)
	lo, hi := a.KeySpan()
	first, last := m.OwnerOf(lo), m.OwnerOf(hi)
	var ids []int
	for l := uint8(0); l < a.Level(); l++ {
		if id := m.OwnerOf(uint64(a.AncestorAt(l))); id < first && (len(ids) == 0 || id > ids[len(ids)-1]) {
			ids = append(ids, id)
		}
	}
	for id := first; id <= last; id++ {
		ids = append(ids, id)
	}
	return ids, nil
}

// All returns every shard id, ascending.
func (m *ShardMap) All() []int {
	out := make([]int, len(m.spans))
	for i := range out {
		out[i] = i
	}
	return out
}
