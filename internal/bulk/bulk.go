// Package bulk constructs complete octrees from flat slices of leaf
// Morton codes, Cornerstone-style: sort the codes along the space-filling
// curve, validate them as a partition of the domain, derive every internal
// node top-down from the common key prefixes of adjacent leaves, and link
// parent/child indices — all in parallel chunks over internal/parallel.
//
// The output is a flat, index-linked node array in pre-order (= integer
// order of the codes), the layout the p4est Morton-representation work shows is right
// for bulk passes; core.Tree.ConstructFromCodes turns it into committed
// PM-octree records with one span-coalesced arena write.
//
// Determinism contract: every stage either uses fixed chunk boundaries
// (the sort) or writes per-index output slots that do not depend on chunk
// boundaries, so the result — including which validation error is
// reported — is bit-identical for ANY worker count, nil pool included.
package bulk

import (
	"sort"

	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
)

// sortChunk is the fixed run length of the parallel sort: the input is cut
// into sortChunk-sized runs (independent of worker count), each run sorted
// in place, then runs are merged pairwise. Chunk geometry is part of the
// determinism contract, not a tuning knob tied to the pool width.
const sortChunk = 1 << 14

// valChunk is the fixed chunk length of the validation scans.
const valChunk = 1 << 15

// totalCells is the number of level-MaxLevel cells in the domain; a valid
// leaf set's cell volumes sum to exactly this.
const totalCells = uint64(1) << (3 * morton.MaxLevel)

// Options parameterizes Construct.
type Options struct {
	// Pool schedules the parallel stages; nil runs everything inline.
	Pool *parallel.Pool
	// Balance enforces the 2:1 face constraint by splitting too-coarse
	// leaves (see Balance) before deriving the tree. Off, Construct
	// requires nothing beyond a valid partition of the domain.
	Balance bool
}

// Tree is the derived octree: a flat node array in pre-order (equal to
// ascending code order) with index links. Node 0 is the root.
type Tree struct {
	// Leaves is the final sorted leaf set: the validated input, plus any
	// leaves created by balance splitting.
	Leaves []morton.Code
	// SrcIdx maps each final leaf to the input position whose payload it
	// inherits: balance-split children inherit their split parent's input
	// position, mirroring how incremental refinement copies octant data
	// down to new children.
	SrcIdx []int32

	// Nodes holds every octant (internal + leaf) in pre-order.
	Nodes []morton.Code
	// Parent[j] is the node index of Nodes[j]'s parent, -1 for the root.
	Parent []int32
	// Children[8*j+k] is the node index of Nodes[j]'s k-th child, -1 for
	// all eight when Nodes[j] is a leaf. Internal nodes always have all
	// eight (a partition of the domain derives a complete octree).
	Children []int32
	// NodeLeaf[j] is the leaf ordinal of Nodes[j], -1 for internal nodes.
	NodeLeaf []int32
	// Depth is the maximum leaf level.
	Depth uint8
}

// Construct validates codes as a leaf partition of the domain and derives
// the full octree. Validation errors are typed (*OutOfRangeError,
// *DuplicateCodeError, *OverlapError, *CoverageError) and deterministic:
// the same input yields the same error at any worker count. The input
// slice is not modified.
func Construct(codes []morton.Code, opts Options) (*Tree, error) {
	leaves, src, err := validateAndSort(codes, opts.Pool)
	if err != nil {
		return nil, err
	}
	if opts.Balance {
		var c Closure
		leaves, src, _ = c.Run(leaves, src, opts.Pool)
	}
	return derive(leaves, src, opts.Pool), nil
}

// validateAndSort checks codes for range errors, sorts them along the
// space-filling curve, and checks the sorted order for duplicates,
// overlaps, and full domain coverage. It returns the sorted codes and the
// permutation mapping each sorted position to its input position.
func validateAndSort(codes []morton.Code, pool *parallel.Pool) ([]morton.Code, []int32, error) {
	n := len(codes)
	if n == 0 {
		return nil, nil, &CoverageError{Cell: 0, Index: 0}
	}
	if err := validateRange(codes, pool); err != nil {
		return nil, nil, err
	}
	perm := sortPerm(codes, pool)
	if err := validateSorted(codes, perm, pool); err != nil {
		return nil, nil, err
	}
	leaves := make([]morton.Code, n)
	src := make([]int32, n)
	pool.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			leaves[i] = codes[perm[i]]
			src[i] = perm[i]
		}
	})
	return leaves, src, nil
}

// validateRange returns an OutOfRangeError for the smallest input index
// holding a malformed code.
func validateRange(codes []morton.Code, pool *parallel.Pool) error {
	n := len(codes)
	nc := (n + valChunk - 1) / valChunk
	bad := make([]int32, nc)
	pool.RunMin(nc, 2, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			bad[c] = -1
			hi := min((c+1)*valChunk, n)
			for i := c * valChunk; i < hi; i++ {
				if !codes[i].Valid() {
					bad[c] = int32(i)
					break
				}
			}
		}
	})
	for _, b := range bad {
		if b >= 0 {
			return &OutOfRangeError{Index: int(b), Code: codes[b]}
		}
	}
	return nil
}

// codeLess is the strict total order of the sort: codes ascending, input
// index as tie-breaker so equal codes stay in input order and the whole
// permutation is uniquely determined.
func codeLess(codes []morton.Code, a, b int32) bool {
	if codes[a] != codes[b] {
		return codes[a] < codes[b]
	}
	return a < b
}

// sortPerm returns the permutation sorting codes ascending (ties by input
// index): fixed-size runs sorted independently, then merged pairwise.
// Both the run boundaries and the merge tree are functions of n alone, so
// the schedule — and trivially the result, since the order is total — is
// identical at every worker count.
func sortPerm(codes []morton.Code, pool *parallel.Pool) []int32 {
	n := len(codes)
	perm := make([]int32, n)
	pool.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			perm[i] = int32(i)
		}
	})
	nc := (n + sortChunk - 1) / sortChunk
	if nc <= 1 {
		sort.Slice(perm, func(a, b int) bool { return codeLess(codes, perm[a], perm[b]) })
		return perm
	}
	pool.RunMin(nc, 2, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			run := perm[c*sortChunk : min((c+1)*sortChunk, n)]
			sort.Slice(run, func(a, b int) bool { return codeLess(codes, run[a], run[b]) })
		}
	})
	buf := make([]int32, n)
	src, dst := perm, buf
	for width := sortChunk; width < n; width *= 2 {
		pairs := (n + 2*width - 1) / (2 * width)
		pool.RunMin(pairs, 2, func(plo, phi int) {
			for p := plo; p < phi; p++ {
				s := p * 2 * width
				mergeRuns(codes, src, dst, s, min(s+width, n), min(s+2*width, n))
			}
		})
		src, dst = dst, src
	}
	return src
}

// mergeRuns merges the sorted runs src[s:mid] and src[mid:e] into
// dst[s:e].
func mergeRuns(codes []morton.Code, src, dst []int32, s, mid, e int) {
	i, j := s, mid
	for k := s; k < e; k++ {
		if j >= e || (i < mid && codeLess(codes, src[i], src[j])) {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
	}
}

// cellVolume is the number of level-MaxLevel cells covered by a level-l
// octant.
func cellVolume(l uint8) uint64 {
	return uint64(1) << (3 * (morton.MaxLevel - l))
}

// validateSorted scans the sorted view for duplicates, overlapping
// ancestor/descendant pairs, and coverage gaps, in that priority order,
// each reported at its smallest sorted position.
func validateSorted(codes []morton.Code, perm []int32, pool *parallel.Pool) error {
	n := len(perm)
	nc := (n + valChunk - 1) / valChunk
	bad := make([]int32, nc)

	// Duplicates: equal codes are adjacent; the index tie-break keeps the
	// earlier input position first.
	pool.RunMin(nc, 2, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			bad[c] = -1
			hi := min((c+1)*valChunk, n)
			for i := max(c*valChunk, 1); i < hi; i++ {
				if codes[perm[i-1]] == codes[perm[i]] {
					bad[c] = int32(i)
					break
				}
			}
		}
	})
	for _, b := range bad {
		if b >= 0 {
			return &DuplicateCodeError{
				Code:   codes[perm[b]],
				First:  int(perm[b-1]),
				Second: int(perm[b]),
			}
		}
	}

	// Overlaps: in key order an ancestor immediately precedes one of its
	// descendants, so the adjacent scan is complete (see OverlapError).
	pool.RunMin(nc, 2, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			bad[c] = -1
			hi := min((c+1)*valChunk, n)
			for i := max(c*valChunk, 1); i < hi; i++ {
				if codes[perm[i-1]].IsAncestorOf(codes[perm[i]]) {
					bad[c] = int32(i)
					break
				}
			}
		}
	})
	for _, b := range bad {
		if b >= 0 {
			return &OverlapError{
				Ancestor:        codes[perm[b-1]],
				Descendant:      codes[perm[b]],
				AncestorIndex:   int(perm[b-1]),
				DescendantIndex: int(perm[b]),
			}
		}
	}

	// Coverage: with duplicates and overlaps excluded the leaves are
	// pairwise disjoint, so they tile the domain iff every leaf starts
	// exactly at the cumulative cell volume of its predecessors and the
	// total is the whole domain. Integer partial sums are exact, so the
	// chunked prefix is independent of scheduling.
	partial := make([]uint64, nc)
	pool.RunMin(nc, 2, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			var sum uint64
			hi := min((c+1)*valChunk, n)
			for i := c * valChunk; i < hi; i++ {
				sum += cellVolume(codes[perm[i]].Level())
			}
			partial[c] = sum
		}
	})
	base := make([]uint64, nc+1)
	for c := 0; c < nc; c++ {
		base[c+1] = base[c] + partial[c]
	}
	gapCell := make([]uint64, nc)
	pool.RunMin(nc, 2, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			bad[c] = -1
			cum := base[c]
			hi := min((c+1)*valChunk, n)
			for i := c * valChunk; i < hi; i++ {
				if uint64(codes[perm[i]])>>6 != cum {
					bad[c] = int32(i)
					gapCell[c] = cum
					break
				}
				cum += cellVolume(codes[perm[i]].Level())
			}
		}
	})
	for c, b := range bad {
		if b >= 0 {
			return &CoverageError{Cell: gapCell[c], Index: int(b)}
		}
	}
	if base[nc] != totalCells {
		return &CoverageError{Cell: base[nc], Index: n}
	}
	return nil
}

// derive builds the flat pre-order node array from the sorted, validated
// leaf partition. Each node is emitted exactly once, by its first leaf
// descendant: leaf i contributes its ancestors on the levels below the
// common prefix it shares with leaf i-1 (leaf 0 contributes the root
// chain). The concatenation of those emission groups is already sorted,
// i.e. pre-order.
func derive(leaves []morton.Code, src []int32, pool *parallel.Pool) *Tree {
	n := len(leaves)
	counts := make([]int32, n)
	pool.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 {
				counts[0] = int32(leaves[0].Level()) + 1
				continue
			}
			counts[i] = int32(leaves[i].Level() - morton.CommonLevel(leaves[i-1], leaves[i]))
		}
	})
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	nn := int(offs[n])

	nodes := make([]morton.Code, nn)
	nodeLeaf := make([]int32, nn)
	pool.Run(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			start := uint8(0)
			if i > 0 {
				start = morton.CommonLevel(leaves[i-1], leaves[i]) + 1
			}
			j := offs[i]
			for l := start; l <= leaves[i].Level(); l++ {
				nodes[j] = leaves[i].AncestorAt(l)
				nodeLeaf[j] = -1
				j++
			}
			nodeLeaf[j-1] = int32(i)
		}
	})

	parent := make([]int32, nn)
	children := make([]int32, 8*nn)
	pool.Run(nn, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if nodeLeaf[j] >= 0 {
				for k := 0; k < 8; k++ {
					children[8*j+k] = -1
				}
				continue
			}
			// The derived tree is complete, so every child of an internal
			// node is present; each child has exactly one parent, so the
			// parent writes never collide across chunks. In pre-order a
			// child directly follows its previous sibling when that one is
			// a leaf (child 0 directly follows the node), so only a child
			// after an interior sibling needs a search.
			idx, ok := j, true
			for k := 0; k < 8; k++ {
				child := nodes[j].Child(k)
				if idx+1 < nn && nodes[idx+1] == child {
					idx++
				} else if idx, ok = morton.Lookup(nodes, child); !ok {
					panic("bulk: derived octree is missing a child node (internal inconsistency)")
				}
				children[8*j+k] = int32(idx)
				parent[idx] = int32(j)
			}
		}
	})
	parent[0] = -1

	depth := uint8(0)
	nc := (n + valChunk - 1) / valChunk
	maxes := make([]uint8, nc)
	pool.RunMin(nc, 2, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			var m uint8
			hi := min((c+1)*valChunk, n)
			for i := c * valChunk; i < hi; i++ {
				if l := leaves[i].Level(); l > m {
					m = l
				}
			}
			maxes[c] = m
		}
	})
	for _, m := range maxes {
		if m > depth {
			depth = m
		}
	}

	return &Tree{
		Leaves:   leaves,
		SrcIdx:   src,
		Nodes:    nodes,
		Parent:   parent,
		Children: children,
		NodeLeaf: nodeLeaf,
		Depth:    depth,
	}
}
