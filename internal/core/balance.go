package core

import "pmoctree/internal/morton"

// Balance enforces the 2:1 constraint across faces on the working version
// and returns the number of refines. The complete ripple closure is
// computed in key space (bulk.Closure, shared with bulk construction) over
// the Z-ordered leaf index — no device access while the index is valid,
// as RefineWhere and CoarsenWhere leave it — and every split is then
// applied in one Z-ordered walk through the PM-octree write path: each
// refinement is copy-on-write and placed by the C0/C1 layout policy, and
// splits under a common ancestor share its path copies. The closure's
// balanced leaves become the new index, so Balance leaves it valid.
//
// When every topology change since the last Balance was recorded (the
// seeds), the closure starts from those cells alone; any other change
// makes it probe every leaf.
func (t *Tree) Balance() int {
	defer t.span("Balance").End()
	var leaves, splits []morton.Code
	if t.seedSeq == t.topoSeq+1 {
		leaves, splits = t.balance.RunFrom(t.LeafCodesSnapshot(), t.seeds, nil)
	} else {
		leaves, _, splits = t.balance.Run(t.LeafCodesSnapshot(), nil, nil)
	}
	if len(splits) > 0 {
		nr, _ := t.splitWalk(t.cur, splits)
		t.cur = nr
		t.idx.Refine(leaves)
		t.idx.Stamp(t.contentSeq)
		t.maybeEvict()
	}
	t.seeds = t.seeds[:0]
	t.seedSeq = t.topoSeq + 1
	return len(splits)
}

// recordSeeds adds the cells one RefineWhere or CoarsenWhere split or
// merged to Balance's seeds when the seeds held every change as the
// operation began (seeded, read before it). A list longer than an eighth
// of the leaves is dropped: probing every leaf is then cheaper.
func (t *Tree) recordSeeds(seeded bool, changed []morton.Code) {
	if !seeded || len(t.seeds)+len(changed) > t.idx.N()/8 {
		t.seeds = t.seeds[:0]
		return
	}
	t.seeds = append(t.seeds, changed...)
	t.seedSeq = t.topoSeq + 1
}

// splitWalk splits every octant of splits — sorted, non-empty, all
// within the span of the octant at r, each a leaf by the time the walk
// reaches it — descending only into subtrees that hold one. Returns the
// (possibly copied) ref and whether it changed.
func (t *Tree) splitWalk(r Ref, splits []morton.Code) (Ref, bool) {
	o := t.readOct(r)
	nr := r
	fresh := o.IsLeaf()
	if fresh {
		// Ancestors sort first: the leaf is itself the first pending split,
		// the rest lie in the children it is about to get.
		nr = t.splitLeaf(r, &o)
		splits = splits[1:]
	}
	changed := false
	for i, c := range o.Children {
		if len(splits) == 0 {
			break
		}
		_, hi := o.Code.Child(i).KeySpan()
		n := 0
		for n < len(splits) && uint64(splits[n]) <= hi {
			n++
		}
		if n == 0 {
			continue
		}
		nc, chg := t.splitWalk(c, splits[:n])
		splits = splits[n:]
		if chg {
			o.Children[i] = nc
			changed = true
		}
	}
	if fresh {
		// Fresh children are working-version octants: their refs cannot
		// change, so the leaf written by splitLeaf is already final.
		return nr, nr != r
	}
	if !changed {
		return r, false
	}
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, false
	}
	return t.commitOctant(r, &o), true
}

// IsBalanced reports whether the working version satisfies the 2:1 face
// constraint. It is the independent check Balance is held to: a whole-tree
// scan probing every leaf's neighbors by tree walk, sharing nothing with
// the key-space closure.
func (t *Tree) IsBalanced() bool {
	return len(t.findViolators()) == 0
}

// findViolators scans leaves once and returns the distinct codes of
// too-coarse neighbor leaves. Face neighbors inside a leaf's own parent
// are siblings at the same level and can never violate, so only the
// outward faces are probed.
func (t *Tree) findViolators() []morton.Code {
	seen := map[morton.Code]bool{}
	var out []morton.Code
	var scratch [6]morton.Code
	t.ForEachNode(func(_ Ref, o *Octant) bool {
		if !o.IsLeaf() || o.Code.Level() < 2 {
			return true
		}
		parent := o.Code.Parent()
		for _, ncode := range o.Code.FaceNeighbors(scratch[:0]) {
			if ncode.Parent() == parent {
				continue // sibling: same level by construction
			}
			_, leaf := t.FindLeaf(ncode)
			if leaf.IsLeaf() && o.Code.Level()-leaf.Code.Level() > 1 && !seen[leaf.Code] {
				seen[leaf.Code] = true
				out = append(out, leaf.Code)
			}
		}
		return true
	})
	return out
}
