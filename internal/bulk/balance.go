package bulk

import (
	"cmp"
	"slices"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// Balance validates leaves as a partition of the domain and returns the
// minimal 2:1 face-balanced refinement of it: the same fixed point
// core.Tree.Balance reaches (both run Closure), computed over the flat
// sorted array. The input slice is not modified; the result is sorted by
// Key.
func Balance(leaves []morton.Code, pool *parallel.Pool) ([]morton.Code, error) {
	sorted, _, err := validateAndSort(leaves, pool)
	if err != nil {
		return nil, err
	}
	var c Closure
	sorted, _, _ = c.Run(sorted, nil, pool)
	return sorted, nil
}

// Closure computes the 2:1 face-balance ripple closure of a Z-ordered
// leaf partition in key space — no tree, no device access — and keeps its
// scratch between runs, so a caller that balances every step (core.Tree)
// allocates nothing once the buffers have grown to the mesh. The zero
// value is ready to use.
type Closure struct {
	in     []morton.Code // the round's input leaves, read by the chunked passes
	viol   []int32       // viol[6*i+f]: the leaf that leaf i forces to split across face f, or -1
	mark   []bool        // leaves splitting this round
	leaves [2][]morton.Code
	src    [2][]int32
	splits []morton.Code
}

// Run iterates split rounds until no leaf violates the 2:1 face
// constraint and returns the balanced leaves, their payload sources, and
// every leaf that was split in any round (a split leaf's children may
// split again in a later round, so the set holds interior octants of the
// result too), all sorted by Key — ancestors before descendants. leaves
// must be a Key-sorted partition of the domain and is not modified; src,
// when non-nil, maps each leaf to its payload source, and split children
// inherit their split leaf's entry, mirroring how incremental refinement
// copies payload down to new children. The returned slices alias the
// Closure's scratch (or, when nothing split, the inputs) and are valid
// until the next Run.
//
// Each round every leaf at level >= 2 probes across its outward faces
// (siblings inside its own parent are the same level by construction),
// locates the leaf covering the neighboring cell (morton.Container), and
// marks it for splitting when it is more than one level coarser. The
// marking pass writes one slot per (probing leaf, face), so which leaves
// split in a round never depends on chunk boundaries; the fixed point
// itself is the unique minimal balanced refinement.
func (c *Closure) Run(leaves []morton.Code, src []int32, pool *parallel.Pool) ([]morton.Code, []int32, []morton.Code) {
	c.splits = c.splits[:0]
	for round := 0; ; round++ {
		n := len(leaves)
		c.in = leaves
		c.viol = grow(c.viol, 6*n)
		if pool.Workers() == 1 {
			// Called directly: a method value handed to the pool escapes,
			// and the per-step caller must not allocate.
			c.probe(0, n)
		} else {
			pool.Run(n, c.probe)
		}
		c.mark = grow(c.mark, n)
		clear(c.mark)
		nsplit := 0
		for _, v := range c.viol {
			if v >= 0 && !c.mark[v] {
				c.mark[v] = true
				nsplit++
			}
		}
		if nsplit == 0 {
			if round > 1 {
				// Each round emits its splits in Z-order; later rounds
				// interleave with earlier ones.
				slices.SortFunc(c.splits, func(a, b morton.Code) int { return cmp.Compare(a.Key(), b.Key()) })
			}
			return leaves, src, c.splits
		}
		// Children of a split leaf are contiguous and ascending in Key, so
		// the rebuilt array stays sorted.
		out := grow(c.leaves[round&1], n+7*nsplit)
		var osrc []int32
		if src != nil {
			osrc = grow(c.src[round&1], n+7*nsplit)
		}
		j := 0
		for i, leaf := range leaves {
			if !c.mark[i] {
				out[j] = leaf
				if src != nil {
					osrc[j] = src[i]
				}
				j++
				continue
			}
			c.splits = append(c.splits, leaf)
			for k := 0; k < 8; k++ {
				out[j] = leaf.Child(k)
				if src != nil {
					osrc[j] = src[i]
				}
				j++
			}
		}
		c.leaves[round&1], c.src[round&1] = out, osrc
		leaves, src = out, osrc
	}
}

// faceDirs are the six face directions, in the order of viol's slots.
var faceDirs = [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

// outwardFaces returns the faceDirs slots of the three faces child k of an
// octant shares with its parent's boundary (child index bits are
// zbit<<2 | ybit<<1 | xbit).
func outwardFaces(k int) uint8 {
	return 1<<(1-k&1) | 1<<(3-k>>1&1) | 1<<(5-k>>2&1)
}

// probe marks, for the leaves in [lo, hi), the leaves their outward faces
// force to split. A level-L leaf's outward same-level neighbor lies in
// the face neighbor of its parent, and a covering leaf more than one level
// coarser than L covers that whole parent-level cell, so sibling leaves
// share their probes: each run of consecutive siblings searches once per
// face of the parent that any of them touches and that lies on the
// parent's own parent's boundary.
func (c *Closure) probe(lo, hi int) {
	viol := c.viol[6*lo : 6*hi]
	for k := range viol {
		viol[k] = -1
	}
	for i := lo; i < hi; {
		o := c.in[i]
		level := o.Level()
		if level < 2 {
			i++
			continue
		}
		par := o.Parent()
		var faces uint8
		j := i
		for ; j < hi && c.in[j].Level() == level && c.in[j].Parent() == par; j++ {
			faces |= outwardFaces(c.in[j].ChildIndex())
		}
		// Across an inward face of par lies a sibling of par: a leaf more
		// than one level coarser holding it would hold par's parent, and
		// so these leaves. Only par's own outward faces can force a split.
		faces &= outwardFaces(par.ChildIndex())
		for f, d := range faceDirs {
			if faces&(1<<f) == 0 {
				continue
			}
			nb, ok := par.Neighbor(d[0], d[1], d[2])
			if !ok {
				continue
			}
			if k, _ := morton.Container(c.in, nb); c.in[k].Level() < level-1 {
				c.viol[6*i+f] = int32(k)
			}
		}
		i = j
	}
}

// grow returns s resized to n elements, reallocating only when its
// capacity is too small; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
