package core

import (
	"fmt"

	"pmoctree/internal/bulk"
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
	"pmoctree/internal/pmem"
	"pmoctree/internal/telemetry"
)

// ConstructStateError reports a bulk construction attempted while the
// working version holds uncommitted mutations; construction replaces the
// whole working tree, so it is only legal at a step boundary (cur ==
// committed), where nothing would be silently discarded.
type ConstructStateError struct {
	Step uint64
}

func (e *ConstructStateError) Error() string {
	return fmt.Sprintf("core: ConstructFromCodes at step %d with uncommitted working-version mutations", e.Step)
}

// AdvanceStepTo fast-forwards the working version number without
// committing anything, so a tree constructed from another tree's leaf
// codes can commit at the SAME version number as its source — shard
// materialization uses this to keep per-shard catalogs version-consistent
// with the full arena. Forward-only, and only at a step boundary.
func (t *Tree) AdvanceStepTo(step uint64) error {
	if t.cur != t.committed {
		return &ConstructStateError{Step: t.step}
	}
	if step < t.step {
		return fmt.Errorf("core: AdvanceStepTo(%d) would rewind step %d", step, t.step)
	}
	t.step = step
	return nil
}

// ConstructFromCodes replaces the working version with a tree built in
// bulk from a slice of leaf Morton codes, Cornerstone-style (see
// internal/bulk): parallel sort + typed validation, top-down derivation of
// the internal structure from common key prefixes, optional 2:1 balance
// enforcement, then one contiguous arena run (pmem.AllocRun) filled by a
// single span-coalesced device write. data, when non-empty, must be
// len(codes) long and carries each input leaf's field payload;
// balance-split children inherit their source leaf's payload, exactly as
// incremental refinement copies data down. Internal nodes carry zero data,
// matching a tree refined from a fresh root.
//
// The resulting working version is bit-identical (digest equality) to the
// same leaf set built by incremental refine + UpdateLeaves, at any worker
// count. The leaf index is filled, tiled and stamped valid, so the first
// LeafTiles after construction is free.
//
// The caller commits with Persist as usual; every constructed octant is
// already NVBM-resident and C0 holds nothing, so the persist merge visits
// no octant. Returns the total octant count (internal + leaves).
// Validation failures return the typed bulk errors
// (*bulk.DuplicateCodeError, *bulk.OverlapError, ...) unwrapped, with the
// tree untouched.
func (t *Tree) ConstructFromCodes(codes []morton.Code, data [][DataWords]float64, pool *parallel.Pool, balance bool) (int, error) {
	return t.construct(codes, data, len(codes), pool, balance)
}

// ConstructWithFillers is ConstructFromCodes, without a balance pass, for
// a tree that holds only part of a mesh: codes[:held] are the leaves it
// holds and codes[held:] are fillers that merely complete the octree.
// Filler leaves are stored with FlagFiller in the same write, so a reader
// of any version tells held data from filler.
func (t *Tree) ConstructWithFillers(codes []morton.Code, data [][DataWords]float64, held int, pool *parallel.Pool) (int, error) {
	return t.construct(codes, data, held, pool, false)
}

func (t *Tree) construct(codes []morton.Code, data [][DataWords]float64, held int, pool *parallel.Pool, balance bool) (int, error) {
	if t.cur != t.committed {
		return 0, &ConstructStateError{Step: t.step}
	}
	if len(data) != 0 && len(data) != len(codes) {
		return 0, fmt.Errorf("core: ConstructFromCodes got %d payloads for %d codes", len(data), len(codes))
	}
	defer t.span("Construct").End()
	bt, err := bulk.Construct(codes, bulk.Options{Pool: pool, Balance: balance})
	if err != nil {
		return 0, err
	}
	nn := len(bt.Nodes)
	stride := t.nv.Stride()
	if t.led.full == "" {
		// The replaced version dies whole: its slots are the live ones the
		// ledger has not seen dropped. An unseeded ledger leaves them to
		// the full mark its next collection runs.
		t.led.dropWorking(t.nv.LiveWords(), t.step)
	}
	base := t.nv.AllocRun(nn)
	t.led.birthRun(base, nn, t.step)
	ref := func(idx int32) Ref {
		if idx < 0 {
			return NilRef
		}
		return makeRef(false, base+pmem.Handle(idx))
	}
	buf := make([]byte, nn*stride)
	pool.Run(nn, func(lo, hi int) {
		var o Octant
		for j := lo; j < hi; j++ {
			o = Octant{
				Code:    bt.Nodes[j],
				Parent:  ref(bt.Parent[j]),
				Version: t.step,
			}
			for k := 0; k < 8; k++ {
				o.Children[k] = ref(bt.Children[8*j+k])
			}
			if li := bt.NodeLeaf[j]; li >= 0 {
				src := int(bt.SrcIdx[li])
				if len(data) > 0 {
					o.Data = data[src]
				}
				if src >= held {
					o.Flags = FlagFiller
				}
			}
			o.encode(buf[j*stride:])
		}
	})
	t.nv.WriteSpanExclusive(base, buf)
	t.cur = makeRef(false, base)
	t.depth = bt.Depth
	t.fillers = held < len(codes)

	// Fill the leaf index from the flat derivation, cut its tiles and
	// stamp it valid, so the first LeafTiles re-reads nothing.
	t.beginIndexEmit()
	t.contentSeq++
	t.topoSeq++
	t.idx.Grow(len(bt.Leaves))
	var payload [DataWords]float64
	for i, code := range bt.Leaves {
		if len(data) > 0 {
			payload = data[bt.SrcIdx[i]]
		}
		t.idx.Append(code, payload)
	}
	t.endIndexEmit()
	t.idx.Retile()

	t.stats.Constructs++
	t.flight.Record(telemetry.FlightEvent{Kind: "construct", Step: t.step, Value: uint64(nn)})
	return nn, nil
}
