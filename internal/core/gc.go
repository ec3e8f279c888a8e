package core

import (
	"math/bits"

	"pmoctree/internal/pmem"
	"pmoctree/internal/telemetry"
)

// GC runs a mark-and-sweep collection over the NVBM arena (§3.2): it marks
// every octant reachable from the committed root and the working root,
// then frees every live NVBM slot left unmarked — octants that belonged
// only to superseded versions, plus working-version octants unlinked by
// coarsening (deferred deletion). It returns the number of slots freed.
//
// GC never touches octants reachable from the committed version, so it is
// safe to crash at any point during collection: recovery re-marks from the
// committed root and a re-run reclaims whatever remains.
//
// Host-side fast path: the mark set is a reusable []uint64 bitset held on
// the Tree (no per-GC map allocation, no hashing), marking runs on an
// explicit stack instead of recursion, and the sweep scans the arena's
// volatile allocation-bitmap mirror word by word, skipping all-zero words,
// instead of probing Live(h) per handle. The MODELED cost is unchanged:
// the persistent allocation bitmap is still what the sweep semantically
// reads, so the per-handle probe charges are accounted in bulk
// (ChargeReadN) and the golden per-step GC statistics stay bit-identical.
func (t *Tree) GC() int {
	defer t.span("GC").End()
	marked := t.ensureMarkBits()
	t.markStack(t.committed, marked)
	if t.cur != t.committed {
		t.markStack(t.cur, marked)
	}
	t.markRetained(marked)
	t.markInflight(marked)
	t.markPinned(marked)
	hw := t.nv.HighWater()
	// The sweep's per-handle bitmap probes, accounted in bulk: one 1-byte
	// read per handle in [1, HighWater], exactly what Live(h) charged.
	t.nv.Device().ChargeReadN(int(hw), 1)
	freed := 0
	for wi, w := range t.nv.LiveWords() {
		if wi >= len(marked) {
			break
		}
		w &^= marked[wi] // live but unreachable
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			idx := uint32(wi)*64 + uint32(b)
			if idx >= hw {
				break
			}
			t.nv.Free(pmem.Handle(idx + 1))
			freed++
		}
	}
	if freed > 0 {
		// Freed NVBM handles are recycled by later allocations; no stale
		// decode may survive them.
		t.cacheInvalidateAll()
	}
	t.stats.GCs++
	t.stats.GCFreed += freed
	t.stats.Deferred = 0
	t.flight.Record(telemetry.FlightEvent{Kind: "gc", Step: t.step, Value: uint64(freed)})
	return freed
}

// ensureMarkBits returns the reusable mark bitset, sized to the arena's
// high-water mark and cleared. One bit per NVBM slot.
func (t *Tree) ensureMarkBits() []uint64 {
	words := (int(t.nv.HighWater()) + 63) / 64
	if cap(t.markBits) < words {
		t.markBits = make([]uint64, words)
		return t.markBits
	}
	t.markBits = t.markBits[:words]
	for i := range t.markBits {
		t.markBits[i] = 0
	}
	return t.markBits
}

// markStack walks the version rooted at r on an explicit stack, setting
// the bit of every reachable NVBM handle. DRAM octants are traversed
// (they may reference NVBM children) but are managed eagerly, not swept.
// The set of readOct calls — and therefore the charged device traffic and
// access accounting — matches the recursive mark it replaced; only the
// visit order differs, which the additive counters cannot observe.
func (t *Tree) markStack(r Ref, marked []uint64) {
	if r.IsNil() {
		return
	}
	stack := append(t.markScratch[:0], r)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !r.InDRAM() {
			idx := uint32(r.Handle() - 1)
			if marked[idx/64]&(1<<(idx%64)) != 0 {
				continue // shared subtree already visited
			}
			marked[idx/64] |= 1 << (idx % 64)
		}
		o := t.readOct(r)
		for _, c := range o.Children {
			if !c.IsNil() {
				stack = append(stack, c)
			}
		}
	}
	t.markScratch = stack[:0] // keep the grown capacity for the next pass
}

// markInflight marks the versions the persist pipeline still needs: the
// newest DURABLE version (the on-device commit record names it — freeing
// it would leave the record dangling until the next flip) and every
// enqueued-but-unflushed version. The host's committed/cur marking alone
// is not enough while a worker runs, because the host view runs ahead of
// durability; with none, the durable root is the committed one and is
// already marked.
func (t *Tree) markInflight(marked []uint64) {
	for _, r := range t.pipe.inflightRoots() {
		t.markGuarded(r, marked)
	}
}

// maybeGC triggers an on-demand collection when NVBM utilization crosses
// its watermark (threshold_NVBM, §3.2). GC is suppressed while the tree is
// mid-merge; here it runs only from batch-operation boundaries, which are
// always consistent points.
func (t *Tree) maybeGC() {
	if t.cfg.NVBMBudgetOctants > 0 && t.nv.Utilization() >= t.cfg.ThresholdNVBM {
		t.GC()
	}
}
