package bulk

import (
	"math/bits"
	"slices"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// Balance validates leaves as a partition of the domain and returns the
// minimal 2:1 face-balanced refinement of it: the same fixed point
// core.Tree.Balance reaches (both run Closure), computed over the flat
// sorted array. The input slice is not modified; the result is sorted.
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
	probes []int32       // the round's probing leaves: positions in in, ascending
	viol   []int32       // viol[6*k+f]: the leaf that probes[k] forces to split across face f, or -1
	hits   []int32       // the round's violators, ascending
	set    []uint64      // a set of positions in in, drained in ascending order
	leaves [2][]morton.Code
	src    [2][]int32
	splits []morton.Code
}

// Run iterates split rounds until no leaf violates the 2:1 face
// constraint and returns the balanced leaves, their payload sources, and
// every leaf that was split in any round (a split leaf's children may
// split again in a later round, so the set holds interior octants of the
// result too), all sorted — ancestors before descendants. leaves
// must be a sorted partition of the domain and is not modified; src,
// when non-nil, maps each leaf to its payload source, and split children
// inherit their split leaf's entry, mirroring how incremental refinement
// copies payload down to new children. The returned slices alias the
// Closure's scratch (or, when nothing split, the inputs) and are valid
// until the next Run or RunFrom.
//
// The first round probes every leaf at level >= 2 across its outward
// faces (siblings inside its own parent are the same level by
// construction): it locates the leaf covering the neighboring cell
// (morton.Container) and marks it for splitting when it is more than one
// level coarser. Each later round probes only the frontier of the last
// round's splits (see frontier). The marking pass writes one slot per
// (probing leaf, face), so which leaves split in a round never depends on
// chunk boundaries; the fixed point itself is the unique minimal balanced
// refinement.
func (c *Closure) Run(leaves []morton.Code, src []int32, pool *parallel.Pool) ([]morton.Code, []int32, []morton.Code) {
	c.probes = grow(c.probes, len(leaves))
	for i := range c.probes {
		c.probes[i] = int32(i)
	}
	return c.run(leaves, src, pool)
}

// RunFrom is Run for a partition that was balanced until the cells of
// changed (any order, repeats allowed) were split or merged: every leaf
// created since must be one of them or a child of one. Only their
// frontier probes in the first round, so the work follows the change,
// and the result equals Run's.
func (c *Closure) RunFrom(leaves, changed []morton.Code, pool *parallel.Pool) ([]morton.Code, []morton.Code) {
	c.in = leaves
	c.frontier(changed)
	leaves, _, splits := c.run(leaves, nil, pool)
	return leaves, splits
}

// run iterates the split rounds from the probe set already in c.probes.
func (c *Closure) run(leaves []morton.Code, src []int32, pool *parallel.Pool) ([]morton.Code, []int32, []morton.Code) {
	c.splits = c.splits[:0]
	for round := 0; ; round++ {
		n := len(leaves)
		c.in = leaves
		np := len(c.probes)
		c.viol = grow(c.viol, 6*np)
		if pool.Workers() == 1 {
			// Called directly: a method value handed to the pool escapes,
			// and the per-step caller must not allocate.
			c.probe(0, np)
		} else {
			pool.Run(np, c.probe)
		}
		c.set = grow(c.set, (n+63)/64)
		for _, v := range c.viol {
			if v >= 0 {
				c.set[v/64] |= 1 << (v % 64)
			}
		}
		hits := c.drain(c.hits[:0])
		c.hits = hits
		if len(hits) == 0 {
			if round > 1 {
				// Each round emits its splits in Z-order; later rounds
				// interleave with earlier ones.
				slices.Sort(c.splits)
			}
			return leaves, src, c.splits
		}
		// Children of a split leaf are contiguous and ascending, so
		// the rebuilt array stays sorted.
		first := len(c.splits)
		out := grow(c.leaves[round&1], n+7*len(hits))[:0]
		var osrc []int32
		if src != nil {
			osrc = grow(c.src[round&1], n+7*len(hits))[:0]
		}
		prev := 0
		for _, h := range hits {
			leaf := leaves[h]
			c.splits = append(c.splits, leaf)
			out = append(out, leaves[prev:h]...)
			for k := 0; k < 8; k++ {
				out = append(out, leaf.Child(k))
			}
			if src != nil {
				osrc = append(osrc, src[prev:h]...)
				osrc = append(osrc, src[h], src[h], src[h], src[h], src[h], src[h], src[h], src[h])
			}
			prev = int(h) + 1
		}
		out = append(out, leaves[prev:]...)
		if src != nil {
			osrc = append(osrc, src[prev:]...)
		}
		c.leaves[round&1], c.src[round&1] = out, osrc
		leaves, src = out, osrc
		c.in = leaves
		c.frontier(c.splits[first:])
	}
}

// frontier sets the probe set to the leaves whose probes can find a
// violation after the cells of changed were split or merged in a balanced
// partition (c.in):
//   - a changed cell that is a leaf (merged), and the leaves at least 2
//     levels finer than it in its six face-neighbor cells, which it may
//     now be too coarse for;
//   - the children of a changed cell that are leaves (it was split), and
//     the leaves at least 3 levels finer than it in its face-neighbor
//     cells, which those children may still be too coarse for.
//
// Any other violation pairs two leaves that were both there, and adjacent,
// while the partition was balanced. A changed cell inside a coarser leaf
// was merged away, and that leaf is itself a changed cell.
func (c *Closure) frontier(changed []morton.Code) {
	c.set = grow(c.set, (len(c.in)+63)/64)
	for _, x := range changed {
		l := x.Level()
		if i, leaf := morton.Lookup(c.in, x); leaf {
			c.set[i/64] |= 1 << (i % 64)
			c.near(x, l+2)
		} else if i < 0 || !c.in[i].Contains(x) {
			c.inside(x, l+1, l+1)
			c.near(x, l+3)
		}
	}
	c.probes = c.drain(c.probes[:0])
}

// near adds to c.set the leaves at level from or deeper in the six
// face-neighbor cells of x.
func (c *Closure) near(x morton.Code, from uint8) {
	for _, d := range faceDirs {
		if nb, ok := x.Neighbor(d[0], d[1], d[2]); ok {
			c.inside(nb, from, morton.MaxLevel)
		}
	}
}

// inside adds to c.set the leaves strictly inside cell at levels from
// through to. They follow the last code at or before cell; when cell is
// itself a leaf or lies in a coarser one, none do.
func (c *Closure) inside(cell morton.Code, from, to uint8) {
	i, _ := morton.Lookup(c.in, cell)
	for j := i + 1; j < len(c.in) && cell.IsAncestorOf(c.in[j]); j++ {
		if l := c.in[j].Level(); l >= from && l <= to {
			c.set[j/64] |= 1 << (j % 64)
		}
	}
}

// drain appends the positions in c.set to dst in ascending order and
// empties the set, so every word of its capacity is zero between uses.
func (c *Closure) drain(dst []int32) []int32 {
	for w, word := range c.set {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(64*w+bits.TrailingZeros64(word)))
		}
		c.set[w] = 0
	}
	return dst
}

// faceDirs are the six face directions, in the order of viol's slots.
var faceDirs = [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

// outwardFaces returns the faceDirs slots of the three faces child k of an
// octant shares with its parent's boundary (child index bits are
// zbit<<2 | ybit<<1 | xbit).
func outwardFaces(k int) uint8 {
	return 1<<(1-k&1) | 1<<(3-k>>1&1) | 1<<(5-k>>2&1)
}

// probe marks, for the probing leaves probes[lo:hi], the leaves their
// outward faces force to split. A level-L leaf's outward same-level
// neighbor lies in the face neighbor of its parent, and a covering leaf
// more than one level coarser than L covers that whole parent-level cell,
// so sibling leaves share their probes: each run of consecutive probing
// siblings searches once per face of the parent that any of them touches
// and that lies on the parent's own parent's boundary.
func (c *Closure) probe(lo, hi int) {
	viol := c.viol[6*lo : 6*hi]
	for k := range viol {
		viol[k] = -1
	}
	for k := lo; k < hi; {
		o := c.in[c.probes[k]]
		level := o.Level()
		if level < 2 {
			k++
			continue
		}
		par := o.Parent()
		var faces uint8
		j := k
		for ; j < hi && c.in[c.probes[j]].Level() == level && c.in[c.probes[j]].Parent() == par; j++ {
			faces |= outwardFaces(c.in[c.probes[j]].ChildIndex())
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
			if i, _ := morton.Container(c.in, nb); c.in[i].Level() < level-1 {
				c.viol[6*k+f] = int32(i)
			}
		}
		k = j
	}
}

// grow returns s resized to n elements, reallocating with append's
// headroom only when its capacity is too small, so a mesh that grows step
// by step reallocates rarely; the contents are unspecified, and zero in a
// reallocated slice.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
