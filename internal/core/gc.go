package core

import (
	"slices"

	"pmoctree/internal/telemetry"
)

// GC reclaims the NVBM octants no live version holds (deferred deletion,
// §3.2) and returns the number of slots freed. The live versions are the
// working and committed ones, the retained fallback-ring versions and
// every pinned snapshot.
//
// A collection normally answers from the lifetime ledger (ledger.go): it
// frees each dropped slot whose [birth, death) interval holds no live
// version, reading nothing from the device. When the ledger cannot vouch
// for a live version — the first collection after Restore or Compact, a
// live root other than the one committed at its step, or a dropped slot
// whose death step is unknown — the collection is the full mark-and-sweep
// instead, which also reseeds the ledger. Either way the freed set leaves
// the allocator's liveness mirror in one FreeSet, and allocation reads only
// the mirror, so no later allocation depends on which path ran.
//
// GC never touches octants reachable from the committed version, so it is
// safe to crash at any point during collection: recovery restores the
// committed root, and its first collection marks from it.
func (t *Tree) GC() int {
	defer t.span("GC").End()
	vs := t.liveVersions()
	if why := t.fullReason(vs); why != "" {
		freed := t.gcFull(vs)
		t.led.fulls++
		t.flight.Record(telemetry.FlightEvent{Kind: "gc_full", Step: t.step, Value: uint64(freed), Detail: why})
		return t.gcDone(freed)
	}
	return t.gcDone(t.gcLedger(vs))
}

// gcLedger frees the dropped slots no live version in vs holds.
func (t *Tree) gcLedger(vs []VersionInfo) int {
	dead := t.ensureMarkBits()
	steps := make([]uint64, 0, len(vs))
	for _, v := range vs {
		steps = append(steps, v.Step)
	}
	slices.Sort(steps)
	t.led.collect(slices.Compact(steps), dead)
	t.led.prune(steps[0])
	if ledgerCheck.on.Load() {
		t.checkLedger(vs, dead)
	}
	return t.nv.FreeSet(dead)
}

// gcDone accounts a collection that freed freed slots and returns freed.
func (t *Tree) gcDone(freed int) int {
	t.stats.GCs++
	t.stats.GCFreed += freed
	t.stats.Deferred = 0
	t.flight.Record(telemetry.FlightEvent{Kind: "gc", Step: t.step, Value: uint64(freed)})
	return freed
}

// liveVersions lists the committed versions a collection must keep: the
// committed one, the retained ring versions and the pinned ones.
func (t *Tree) liveVersions() []VersionInfo {
	vs := []VersionInfo{{Root: t.committed, Step: t.committedStep}}
	if k := t.cfg.RetainVersions; k > 0 {
		for _, e := range t.ringVersions() {
			if e.Root.IsNil() || e.Root.InDRAM() || e.Step+uint64(k) < t.committedStep {
				continue // empty, or aged out of the retention window
			}
			vs = append(vs, e)
		}
	}
	t.pinMu.Lock()
	for p := range t.pins {
		if p.nv == t.nv { // pins on a retired arena (post-Compact) are dead weight
			vs = append(vs, VersionInfo{Root: p.root, Step: p.step})
		}
	}
	t.pinMu.Unlock()
	return vs
}

// fullReason names why this collection cannot answer from the ledger, or
// returns "".
func (t *Tree) fullReason(vs []VersionInfo) string {
	if t.led.full != "" {
		return t.led.full
	}
	for _, v := range vs {
		if !t.led.placed(v.Root, v.Step) {
			return "unplaced root"
		}
	}
	if len(t.led.unknown) > 0 {
		return "unknown death"
	}
	return ""
}

// gcFull is the mark-and-sweep collection: it marks every NVBM slot
// reachable from a live version (charged reads), charges the persistent
// bitmap probe per slot, frees the live slots left unmarked and reseeds the
// ledger from the version tags it read.
func (t *Tree) gcFull(vs []VersionInfo) int {
	t.led.forgetUnknown()
	marked := t.ensureMarkBits()
	t.markVersions(vs, marked, &t.led)
	hw := t.nv.HighWater()
	// The sweep's per-handle bitmap probes, accounted in bulk: one 1-byte
	// read per handle in [1, HighWater].
	t.nv.Device().ChargeReadN(int(hw), 1)
	live := t.nv.LiveWords()
	for wi := range marked {
		if wi < len(live) {
			marked[wi] = live[wi] &^ marked[wi]
		}
	}
	freed := t.nv.FreeSet(marked)
	t.led.afterSweep(t.nv.LiveWords())
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
	clear(t.markBits)
	return t.markBits
}

// markVersions marks every NVBM slot reachable from the working version
// and the live versions vs. The working and committed versions are marked
// unguarded (they are intact by construction); the others are guarded,
// tolerating stale ring entries whose subtree was already partly reclaimed.
// With seed set, the mark also reseeds that ledger. The set of charged
// reads is the union of the versions' slots, whatever the order.
func (t *Tree) markVersions(vs []VersionInfo, marked []uint64, seed *ledger) {
	t.markFrom(t.cur, marked, false, true, seed)
	if t.committed != t.cur {
		t.markFrom(t.committed, marked, false, false, seed)
	}
	for _, v := range vs {
		t.markFrom(v.Root, marked, true, false, seed)
	}
}

// markFrom walks the version rooted at r on an explicit stack, setting the
// bit of every reachable NVBM handle; one charged read per newly marked
// octant, and none of the tree's access state is touched. DRAM
// octants are traversed (the working version's may reference NVBM
// children) but are managed eagerly, not swept. A guarded mark skips DRAM
// and freed slots instead of walking them; working says whether r is the
// working version, for the reseed.
func (t *Tree) markFrom(r Ref, marked []uint64, guarded, working bool, seed *ledger) {
	stack := append(t.markScratch[:0], r)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r.IsNil() || (guarded && r.InDRAM()) {
			continue
		}
		if !r.InDRAM() {
			h := r.Handle()
			idx := uint32(h - 1)
			if marked[idx/64]&(1<<(idx%64)) != 0 || (guarded && !t.nv.Live(h)) {
				continue // shared subtree already visited, or reclaimed
			}
			marked[idx/64] |= 1 << (idx % 64)
		}
		var o Octant
		t.arenaFor(r).Read(r.Handle(), t.scratch[:])
		o.decode(t.scratch[:])
		if seed != nil && !r.InDRAM() {
			seed.reseed(r.Handle(), o.Version, working)
		}
		stack = append(stack, o.Children[:]...)
	}
	t.markScratch = stack[:0] // keep the grown capacity for the next pass
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
