package cluster

import (
	"slices"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/sim"
)

// globalBalance enforces the 2:1 constraint ACROSS rank boundaries. Each
// rank's local Balance (run before this) cannot see octants owned by its
// neighbors, so a fine leaf on one side of a partition boundary may abut
// a much coarser leaf on the other side. The distributed protocol:
//
//  1. every rank publishes its owned leaf codes (the ghost exchange);
//  2. each rank probes its boundary leaves' face neighbors against the
//     global leaf set and collects too-coarse leaves it OWNS;
//  3. owners refine their violators; repeat until no rank reports one
//     (ripple refinement crosses boundaries at most once per level).
//
// Ranks work in parallel, so the modeled time per round is the MAX of the
// per-rank costs plus the collective exchange. Returns the refine count,
// round count, and total modeled nanoseconds.
func globalBalance(cfg Config, ranks []*rank) (refined, rounds int, modeledNs float64) {
	perRankNs := make([]float64, len(ranks))
	for {
		rounds++
		// 1. Gather the global leaf set; the scan is per-rank work, the
		// exchange a collective over boundary layers.
		global := map[morton.Code]bool{}
		maxBoundary := 0
		for _, r := range ranks {
			m0 := r.memNs()
			n := 0
			r.mesh.ForEachLeaf(func(c morton.Code, _ [sim.DataWords]float64) bool {
				if r.ownsLeaf(c) {
					global[c] = true
					n++
				}
				return true
			})
			perRankNs[r.id] += r.memNs() - m0 + float64(n)*cfg.Cost.TraverseNs
			if b := surfaceOf(n); b > maxBoundary {
				maxBoundary = b
			}
		}
		modeledNs += cfg.Net.Collective(len(ranks), maxBoundary*core.RecordSize)

		// 2. Find cross-boundary violations: for every leaf, any face
		// neighbor whose containing leaf is 2+ levels coarser.
		findLeaf := func(code morton.Code) (morton.Code, bool) {
			for l := int(code.Level()); l >= 0; l-- {
				anc := code.AncestorAt(uint8(l))
				if global[anc] {
					return anc, true
				}
			}
			return 0, false
		}
		violators := map[morton.Code]bool{}
		var scratch [6]morton.Code
		for c := range global {
			if c.Level() < 2 {
				continue
			}
			parent := c.Parent()
			for _, nb := range c.FaceNeighbors(scratch[:0]) {
				if nb.Parent() == parent {
					continue
				}
				leaf, ok := findLeaf(nb)
				if ok && c.Level()-leaf.Level() > 1 {
					violators[leaf] = true
				}
			}
		}
		if len(violators) == 0 {
			max := 0.0
			for _, ns := range perRankNs {
				if ns > max {
					max = ns
				}
			}
			return refined, rounds, modeledNs + max
		}

		// 3. Owners refine their violators in parallel. RefineWhere
		// descends from the root, so restrict the predicate to exact
		// violator codes.
		codes := make([]morton.Code, 0, len(violators))
		for c := range violators {
			codes = append(codes, c)
		}
		slices.Sort(codes)
		for _, r := range ranks {
			owned := map[morton.Code]bool{}
			for _, c := range codes {
				if r.ownsLeaf(c) {
					owned[c] = true
				}
			}
			if len(owned) == 0 {
				continue
			}
			maxL := uint8(0)
			for c := range owned {
				if l := c.Level() + 1; l > maxL {
					maxL = l
				}
			}
			m0 := r.memNs()
			n := r.mesh.RefineWhere(func(c morton.Code) bool {
				return owned[c]
			}, maxL)
			perRankNs[r.id] += r.memNs() - m0 + float64(n)*cfg.Cost.BalanceNs
			refined += n
		}
	}
}

// surfaceOf approximates the boundary-layer size of an n-leaf subdomain.
func surfaceOf(n int) int {
	if n <= 0 {
		return 0
	}
	s := 1
	for s*s*s < n*n {
		s++
	}
	return s // ~ n^(2/3)
}
