package core

import (
	"pmoctree/internal/pmem"
	"pmoctree/internal/telemetry"
)

// The commit sequence. Every Persist ends in commit, on the mutator, after
// a merge that stored every record of the version: the allocation-bitmap
// landing, the fallback-ring push, the step store and the root store. The
// version is durable when Persist returns (pm_persistent is synchronous in
// the paper), and a crash anywhere in the sequence recovers V(i-1) or V(i),
// never a mix.

// commit makes the merged working version t.cur, numbered t.step, the
// committed one on the device. The persist hook, when set, sees three
// stages: "writeback" before the landing, "ring" after the fallback-ring
// push (commit record not yet flipped) and "commit" after the root store.
func (t *Tree) commit() {
	t.persistStage("writeback")
	// The landing rule: the bitmap words and the high water land before
	// any root word is stored, so once the root store makes the version's
	// slots reachable a recovered allocator sees them allocated.
	landBits(t.nv)
	// The superseded version enters the fallback ring before the commit
	// record flips away from it: a crash inside the push damages at most
	// the ring's oldest entry, never the commit record. A crash between
	// the push and the flip leaves the ring entry duplicating the
	// still-committed root, which restore deduplicates.
	if !t.committed.IsNil() && !t.committed.InDRAM() {
		i := int(t.committedStep % histSlots)
		t.nv.SetRoot(histAddrSlot(i), uint64(t.committed))
		t.nv.SetRoot(histStepSlot(i), t.committedStep)
	}
	t.persistStage("ring")
	// The step must be durable BEFORE the root pointer. If power fails
	// between the two stores, recovery sees the old root with the new step
	// number and resumes at step+1 — safely above every version tag in the
	// old tree. The reverse order would let a recovered process treat the
	// just-committed octants as its own working version and mutate them in
	// place.
	t.nv.SetRoot(rootSlotStep, t.step)
	t.nv.SetRoot(rootSlotAddr, uint64(t.cur))
	t.persistStage("commit")
	t.flight.Record(telemetry.FlightEvent{Kind: "commit", Step: t.step, Value: uint64(t.cur)})
}

// SetPersistHook installs a callback invoked at the commit stages of every
// Persist: "writeback" before the allocation-bitmap landing, "ring" after
// the fallback-ring push (commit record not yet flipped) and "commit"
// after the root store. It runs on the mutator inside Persist. Crash
// tests use it to cut power at exact stages; nil removes it.
func (t *Tree) SetPersistHook(fn func(stage string)) { t.hook = fn }

// persistStage calls the persist hook, if any, with stage.
func (t *Tree) persistStage(stage string) {
	if t.hook != nil {
		t.hook(stage)
	}
}

// Flush lands the allocation-bitmap words changed since the last commit
// (what GC freed since, and the working version's allocations), so an image
// taken after Flush carries an exact bitmap. Every committed version is
// already durable: Persist commits before it returns.
func (t *Tree) Flush() { landBits(t.nv) }

// Close is Flush. A tree holds no goroutine or other resource to release.
func (t *Tree) Close() { t.Flush() }

// PipelineStats is what is left of the removed persist worker's counters.
//
// Deprecated: Persist commits inline, so Stalls is always 0. The type stays
// only because benchmark/lifecycle.go and benchmark/metrics.go still
// compile against it.
type PipelineStats struct {
	Stalls uint64 // Persist calls that waited for a persist worker: always 0
}

// PipelineStats returns zero counters.
//
// Deprecated: there is no persist worker; see the PipelineStats type.
func (t *Tree) PipelineStats() PipelineStats { return PipelineStats{} }

// DurableStep returns the step number of the newest durable version.
//
// Deprecated: every committed version is durable; use CommittedStep, which
// this returns. It stays only because benchmark/lifecycle.go still
// compiles against it.
func (t *Tree) DurableStep() uint64 { return t.committedStep }

// landBits lands every allocation-bitmap word nv dirtied since its
// previous landing, and its high water: the first step of commit, and the
// landing rule for the root stores outside it (Create's first root,
// Compact's new arena, a restore's fallback repair).
func landBits(nv *pmem.Arena) {
	words, hw := nv.TakeDirtyBits(nil)
	nv.WriteBitsExclusive(words, hw)
}
