package core

import (
	"cmp"
	"math"
	"slices"

	"pmoctree/internal/morton"
)

// subtreeInfo aggregates one candidate subtree (rooted at L_sub) during a
// transformation pass.
type subtreeInfo struct {
	root    morton.Code
	size    int           // octants in the subtree, each offered to the reservoir
	samples []morton.Code // reservoir samples: a window of Tree.samples
	freq    int           // feature hits among samples (computed later)
}

// SubtreeLevelFor computes L_sub by Equation 1 of the paper:
//
//	L_sub = Depth_octree - floor(log_Fanout(Size_DRAM))
//
// clamped to [1, depth]. Fanout is 8 for an octree; Size_DRAM is the C0
// budget in octants.
func SubtreeLevelFor(depth uint8, dramBudgetOctants int) uint8 {
	if depth == 0 {
		return 1
	}
	levels := 0
	if dramBudgetOctants > 1 {
		levels = int(math.Floor(math.Log(float64(dramBudgetOctants)) / math.Log(8)))
	}
	l := int(depth) - levels
	if l < 1 {
		l = 1
	}
	if l > int(depth) {
		l = int(depth)
	}
	return uint8(l)
}

// packingFactor refines Equation 1 for subtree selection: candidate
// subtrees are sized to ~1/4 of the C0 budget rather than the whole of it,
// so several hot subtrees pack the budget instead of one subtree leaving
// the rest idle.
const packingFactor = 4

// retarget recomputes L_sub and the hot subtree set after a persist (§3.3:
// "dynamic transformation is only triggered after the completion of the
// merging operations").
func (t *Tree) retarget() {
	defer t.span("Transform").End()
	if t.cfg.DisableTransform && t.trunk != nil {
		// Transformation disabled: the layout chosen at the first
		// persist stays frozen, however the access pattern moves —
		// exactly the baseline of Figure 11.
		return
	}
	codes := t.transformCodes()
	infos, depth := t.collect(codes)
	t.depth = depth
	selBudget := t.cfg.DRAMBudgetOctants / packingFactor
	if selBudget < 1 {
		selBudget = 1
	}
	newLsub := SubtreeLevelFor(depth, selBudget)
	if newLsub != t.lsub {
		// Re-gather at the new subtree level.
		t.lsub = newLsub
		infos, _ = t.collect(codes)
	}
	oldHot := t.hot
	if !t.cfg.DisableTransform && len(t.features) > 0 {
		for i := range infos {
			infos[i].freq = t.evalFrequency(&infos[i])
		}
		t.hot = t.selectHot(infos, oldHot)
	} else {
		t.hot = t.selectOblivious(infos)
	}
	for c := range t.hot {
		if !oldHot[c] {
			t.stats.Transforms++
		}
	}
	// The trunk — ancestors of hot subtrees — stays in DRAM so hot-path
	// descents never touch NVBM.
	t.trunk = map[morton.Code]bool{}
	for c := range t.hot {
		for l := c.Level(); l > 0; l-- {
			t.trunk[c.AncestorAt(l-1)] = true
		}
	}
}

// Retarget forces a layout transformation pass outside Persist; examples
// and tests use it after installing feature functions.
func (t *Tree) Retarget() { t.retarget() }

// collect gathers the candidate subtrees at the current L_sub. Tests swap
// in the tree-walk oracle (transform_test.go) through walkOracle.
func (t *Tree) collect(codes []morton.Code) ([]subtreeInfo, uint8) {
	if t.walkOracle != nil {
		return t.walkOracle(t)
	}
	return t.collectSubtrees(codes)
}

// collectSubtrees gathers per-subtree sizes and reservoir samples at the
// current L_sub, and the tree depth, from the working version's leaf codes
// in Z-order — without reading an octant. The interior octants are exactly
// the proper ancestors of the leaves, so replaying, leaf by leaf, the
// ancestors deeper than the common ancestor with the previous leaf and
// then the leaf itself yields every octant in the pre-order of a tree walk
// (DESIGN.md decision 6). Each is offered to its subtree's reservoir as
// the walk would offer it, with the same t.random() calls.
//
// Candidate subtrees are contiguous in pre-order, so each one's samples are
// a window of the flat, reused t.samples buffer, and in steady state the
// pass allocates nothing.
func (t *Tree) collectSubtrees(codes []morton.Code) ([]subtreeInfo, uint8) {
	infos, samples := t.subtrees[:0], t.samples[:0]
	rng := t.random()
	lsub, ns := t.lsub, t.cfg.NSample
	var depth uint8
	lo := 0 // the open subtree's first sample
	for k, c := range codes {
		l := c.Level()
		depth = max(depth, l)
		first := uint8(0) // shallowest octant that is new at this leaf
		if k > 0 {
			first = morton.CommonLevel(codes[k-1], c) + 1
		}
		if l < lsub {
			// A region coarser than L_sub is its own (single-octant)
			// candidate subtree; the trunk interior above it is not a
			// candidate — residency follows the hot subtrees below it.
			infos = append(infos, subtreeInfo{root: c, size: 1})
			samples = append(samples, c)
			continue
		}
		if first <= lsub {
			lo = len(samples)
			infos = append(infos, subtreeInfo{root: c.AncestorAt(lsub)})
			first = lsub
		}
		in := &infos[len(infos)-1]
		for lv := first; lv <= l; lv++ {
			in.size++
			// Reservoir sampling: keep NSample uniform samples per subtree.
			if len(samples)-lo < ns {
				samples = append(samples, c.AncestorAt(lv))
			} else if j := rng.Intn(in.size); j < ns {
				samples[lo+j] = c.AncestorAt(lv)
			}
		}
	}
	lo = 0
	for i := range infos {
		n := min(infos[i].size, ns)
		infos[i].samples = samples[lo : lo+n : lo+n]
		lo += n
	}
	t.subtrees, t.samples = infos, samples
	return infos, depth
}

// evalFrequency pre-executes the feature functions on the subtree's
// samples and returns the number of hits — the predicted access frequency
// of §3.3, step 3.
func (t *Tree) evalFrequency(info *subtreeInfo) int {
	hits := 0
	for _, c := range info.samples {
		for _, f := range t.features {
			if f(c) {
				hits++
				break
			}
		}
	}
	return hits
}

// selectHot picks the hot subtree set from frequency-ranked candidates.
// When the previous hot set is still valid, a cold subtree displaces a hot
// one only if its frequency exceeds T_transform times the hot one's —
// hysteresis that avoids thrashing the layout (§3.3, step 4).
//
// The weakest previously-hot candidate not yet re-selected is known without
// a scan: candidates are ranked by falling frequency, and a previously-hot
// one is passed over only for budget. So while one lies ahead, the last
// previously-hot candidate of the ranking is the weakest; once none lies
// ahead, the one most recently passed over is.
func (t *Tree) selectHot(infos []subtreeInfo, oldHot map[morton.Code]bool) map[morton.Code]bool {
	slices.SortFunc(infos, func(a, b subtreeInfo) int {
		if a.freq != b.freq {
			return cmp.Compare(b.freq, a.freq)
		}
		return cmp.Compare(a.root, b.root)
	})
	lastOld := -1
	for i := range infos {
		if oldHot[infos[i].root] {
			lastOld = i
		}
	}
	budget := t.cfg.DRAMBudgetOctants
	hot := map[morton.Code]bool{}
	used, passed := 0, -1 // passed: the last previously-hot candidate over budget
	for i := range infos {
		in := &infos[i]
		old := oldHot[in.root]
		if used+in.size > budget {
			if old {
				passed = i
			}
			continue
		}
		if in.freq == 0 && !old {
			continue // never pull in subtrees with no predicted accesses
		}
		if !old {
			// This subtree is in NVBM. It displaces DRAM residency only
			// if Ratio_access exceeds T_transform against the weakest
			// already-hot candidate that it is effectively displacing.
			weakest := passed
			if lastOld > i {
				weakest = lastOld
			}
			if weakest >= 0 {
				w := infos[weakest].freq
				ratio := float64(in.freq) / math.Max(float64(w), 1)
				if ratio <= t.cfg.TTransform && w > 0 {
					continue
				}
			}
		}
		hot[in.root] = true
		used += in.size
	}
	return hot
}

// selectOblivious fills the DRAM budget with subtrees in Z-order,
// regardless of access pattern — the locality-oblivious layout of
// Figure 5(a), used when transformation is disabled. collectSubtrees
// emits the candidates in Z-order already.
func (t *Tree) selectOblivious(infos []subtreeInfo) map[morton.Code]bool {
	budget := t.cfg.DRAMBudgetOctants
	hot := map[morton.Code]bool{}
	used := 0
	for i := range infos {
		if used+infos[i].size > budget {
			break
		}
		hot[infos[i].root] = true
		used += infos[i].size
	}
	return hot
}
