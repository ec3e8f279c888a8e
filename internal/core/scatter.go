package core

// The leaf-payload batch writer: the one write path behind ScatterLeafTiles
// and UpdateLeavesIndexed. The caller edits the new payload into the leaf
// index and hands over the ascending positions it touched; one Z-ordered
// copy-on-write walk then stores them, descending only into key spans that
// hold a dirty leaf (the shape of Balance's splitWalk). Leaves under a
// common ancestor share its path copies, and every interior octant on a
// dirty path is read once and written at most once.

// writeLeafBatch stores the index payload of the leaves at the ascending
// index positions dirty into the working version and stamps the index valid
// again. An empty batch only re-stamps.
func (t *Tree) writeLeafBatch(dirty []int32) {
	t.maybeReclaim()
	if len(dirty) > 0 {
		// Advance the stamp before the first store: a walk cut short by a
		// device failure must not leave the index claiming to mirror the
		// half-written tree.
		t.contentSeq++
		t.cur = t.scatterWalk(t.cur, NilRef, dirty)
	}
	t.idx.Stamp(t.contentSeq)
}

// scatterWalk stores the payload of the dirty leaves — non-empty, all
// within the span of the octant at r — and returns the ref now holding that
// octant. parent is the ref the octant's parent will have once the walk
// returns.
//
// An octant shared with the committed version that has a dirty leaf below
// it is certain to be copied, and so is every octant between it and that
// leaf: the committed version is closed, so everything under a shared
// octant is shared too. Its slot is therefore allocated before descending
// (as moveToNVBMUnder does) and each copy is written exactly once, with its
// final parent ref and final children — no parent fix-up store afterwards
// and no version probe of the children. Untouched children stay shared and
// keep their V(i-1) parent ref, as under commitOctant.
func (t *Tree) scatterWalk(r, parent Ref, dirty []int32) Ref {
	o := t.readOct(r)
	nr := r
	shared := !t.inPlace(r, &o)
	if shared {
		// Placed by code alone, like splitLeaf's copy: a working-version
		// NVBM octant may sit over DRAM children until Persist merges them.
		t.led.die(r.Handle(), o.Version, t.step)
		nr = t.allocIn(t.placeRegion(o.Code))
		o.Version = t.step
		o.Parent = parent
		t.stats.Copies++
	}
	codes := t.idx.Codes()
	if o.IsLeaf() {
		i := int(dirty[0])
		if len(dirty) != 1 || codes[i] != o.Code {
			panic("core: leaf index out of step with the tree")
		}
		o.Data = t.idx.Load(i)
		if shared {
			t.writeOct(nr, &o)
		} else {
			t.writeDataField(r, &o)
		}
		return nr
	}
	changed := false
	for i, c := range o.Children {
		if len(dirty) == 0 {
			break
		}
		_, hi := o.Code.Child(i).KeySpan()
		n := 0
		for n < len(dirty) && uint64(codes[dirty[n]]) <= hi {
			n++
		}
		if n == 0 {
			continue
		}
		nc := t.scatterWalk(c, nr, dirty[:n])
		dirty = dirty[n:]
		if nc != c {
			o.Children[i] = nc
			changed = true
		}
	}
	if shared {
		t.writeOct(nr, &o)
	} else if changed {
		t.writeChildren(r, &o)
	}
	return nr
}
