package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pmoctree/internal/pmem"
	"pmoctree/internal/telemetry"
)

// Persistence pipeline. Every tree has one, and every Persist ends in the
// same commitBatch: fallback-ring push, step store, root store. At
// Config.PipelineDepth 0 no worker exists and commitBatch runs inline on
// the mutator, after a merge that stored every record and bitmap bit
// eagerly. With PipelineDepth > 0 the merge instead STAGES the step's
// delta (the records of every octant relocated from C0) in host memory
// and hands it to a background persist worker, which performs the device
// writeback and then commitBatch off the mutator's critical path. The
// mutator's view of "committed" advances immediately at every depth —
// step i+1 treats version i as immutable either way — while DURABILITY
// trails by at most PipelineDepth versions: a crash loses
// enqueued-but-unflushed versions and recovers to the newest version whose
// commit record actually flipped. Flush is the durability barrier.
//
// Invariants the pipeline preserves while a worker runs:
//
//   - A staged octant's slot is allocated (its persistent bitmap bit set)
//     by the mutator before staging, so no later allocation can collide
//     with an in-flight record, and GC keeps in-flight versions
//     live (inflightVersions) so a collection never frees them.
//   - Staged slots are never read from the device until their record
//     lands: every mutator read of an NVBM record consults the pending
//     set first (read-your-writes), still charging the modeled device
//     read so accounting does not depend on writeback timing.
//   - Committed octants are immutable, so once a version is enqueued its
//     delta records are final — with one exception: while the NEXT merge
//     is staging, reparentChanged may patch the parent field of a record
//     staged moments earlier in the SAME merge. patchParent therefore
//     only touches records of the merge currently being staged, never a
//     record the worker may be writing.
//   - Only commitBatch stores to the root table; mutator-side root-table
//     reads (ringVersions) take rootMu so ring pushes and commit flips
//     stay atomic under them.
//
// Under group commit (GroupCommit = k > 1) the worker drains up to k
// queued versions into ONE durable commit: one writeback batch, one ring
// push, one record flip naming the newest version of the group. The older
// versions of a group never get their own commit record — after a crash
// they are unrecoverable, which is exactly the deal group commit offers
// (commit frequency decoupled from step frequency). Their digests still
// count as legitimate recovery targets for the chaos harness because a
// crash can also land BEFORE a group forms, making any enqueued version
// the newest flipped one.

// PipelineDepthError reports a Config.PipelineDepth exceeding what the
// fallback ring can absorb alongside the configured RetainVersions: every
// in-flight version will claim a ring entry when its group commits, and
// the retained versions' entries must survive a full in-flight window.
type PipelineDepthError struct {
	Requested int // the configured PipelineDepth
	Limit     int // MaxRetainVersions - RetainVersions
}

func (e *PipelineDepthError) Error() string {
	return fmt.Sprintf("core: PipelineDepth %d exceeds the fallback ring headroom %d (ring depth %d minus RetainVersions)",
		e.Requested, e.Limit, MaxRetainVersions)
}

// PipelineStats are the persist pipeline's cumulative counters.
type PipelineStats struct {
	Enqueued  uint64 // versions handed to the persist worker
	Committed uint64 // durable commits (commit-record flips), inline ones included
	Coalesced uint64 // versions folded into a group commit without their own flip
	Stalls    uint64 // Persist calls that blocked on a full in-flight window
	Pending   int    // versions enqueued but not yet durable right now
}

// stagedRec is one relocated octant awaiting writeback: the slot it was
// allocated and its encoded record.
type stagedRec struct {
	h   pmem.Handle
	rec [RecordSize]byte
}

// commitReq is one enqueued version: its root, step number, merge delta,
// and the arena it must be written to (captured at enqueue time so a
// later Compact cannot swap the arena under the worker). bits and hw are
// the deferred allocation-bitmap snapshot covering every alloc and free
// up to this version — the worker lands them before the commit flip, so
// a recovered allocator never hands out a slot the durable root owns.
type commitReq struct {
	root  Ref
	step  uint64
	delta []*stagedRec
	nv    *pmem.Arena
	bits  []pmem.BitWord
	hw    uint32
}

type pipeline struct {
	t     *Tree
	depth int
	group int

	// async is set while a persist worker goroutine runs: Persist then
	// stages and enqueues instead of committing inline, and NVBM reads
	// consult the pending set. Mutator-owned; Close and AbortPipeline
	// clear it once the worker has exited.
	async bool

	// mu guards the queue, the durable watermark, shutdown state, and the
	// stashed worker failure. cond signals both directions: the mutator
	// waits for window space, the worker waits for work.
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*commitReq
	durableRoot Ref
	durableStep uint64
	closed      bool
	aborted     bool
	failure     any // stashed worker panic, re-raised on the mutator
	hook        func(stage string)

	// rootMu serializes commitBatch's root-table stores (ring push, commit
	// flip) against mutator-side root-table reads: the table shares device
	// bytes, and the two-store flip must be atomic under readers.
	rootMu sync.Mutex

	// pending maps staged-but-not-yet-durable slots to their records, for
	// mutator read-your-writes. pendMu is RW: the mutator reads on every
	// NVBM record load, the worker deletes entries after each batch.
	pendMu  sync.RWMutex
	pending map[pmem.Handle]*stagedRec

	// staging is set by the mutator around moveToNVBM when persisting
	// asynchronously; stage accumulates the delta. Mutator-only.
	staging bool
	stage   []*stagedRec

	// spanBuf is the worker's reusable span-assembly buffer. Worker-only.
	spanBuf []byte

	enqueued  atomic.Uint64
	committed atomic.Uint64
	coalesced atomic.Uint64
	stalls    atomic.Uint64

	done chan struct{}
}

// startPipeline builds the tree's pipeline, and launches the persist
// worker when Config.PipelineDepth > 0. Called from Create and
// RestoreWithReport once the tree has a committed version.
func (t *Tree) startPipeline() {
	p := &pipeline{
		t:           t,
		depth:       t.cfg.PipelineDepth,
		group:       min(max(t.cfg.GroupCommit, 1), max(t.cfg.PipelineDepth, 1)),
		durableRoot: t.committed,
		durableStep: t.committedStep,
		pending:     make(map[pmem.Handle]*stagedRec),
		done:        make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	t.pipe = p
	if p.depth > 0 {
		p.async = true
		// While the worker runs, allocation-bitmap and high-water
		// persistence ride its commit batches instead of charging the
		// mutator a device read-modify-write per alloc and free.
		t.nv.SetDeferredBits(true)
		go p.worker()
	}
}

// PipelineStats returns the pipeline's counters.
func (t *Tree) PipelineStats() PipelineStats {
	p := t.pipe
	p.mu.Lock()
	pending := len(p.queue)
	p.mu.Unlock()
	return PipelineStats{
		Enqueued:  p.enqueued.Load(),
		Committed: p.committed.Load(),
		Coalesced: p.coalesced.Load(),
		Stalls:    p.stalls.Load(),
		Pending:   pending,
	}
}

// DurableStep returns the step number of the newest version whose commit
// record has actually flipped. With no worker running it equals
// CommittedStep after every Persist; a worker may trail it by up to
// PipelineDepth versions until Flush.
func (t *Tree) DurableStep() uint64 {
	_, step := t.pipe.durable()
	return step
}

// SetPersistHook installs a callback invoked at commit stage boundaries:
// "writeback" before a batch's record writes, "ring" after the
// fallback-ring push (commit record not yet flipped), "commit" after the
// record flip. Chaos harnesses use it to cut power at exact stages.
// Install it before stepping begins. While a worker runs, the callback
// runs on the worker goroutine and sees all three stages; at
// PipelineDepth 0 it runs on the mutator inside Persist and sees only
// "ring" and "commit", because the merge already stored every record.
func (t *Tree) SetPersistHook(fn func(stage string)) {
	p := t.pipe
	p.mu.Lock()
	p.hook = fn
	p.mu.Unlock()
}

// Flush blocks until every enqueued version is durably committed — the
// durability barrier: after Flush returns, the commit record names the
// newest version Persist produced. A persist-worker crash (e.g. power
// lost during writeback) is re-raised here on the caller, exactly as an
// inline commit would have panicked at the failing device access. With
// no worker running every version is already durable and Flush returns
// at once.
func (t *Tree) Flush() {
	p := t.pipe
	p.mu.Lock()
	for len(p.queue) > 0 && p.failure == nil {
		p.cond.Wait()
	}
	f := p.failure
	p.mu.Unlock()
	if f != nil {
		panic(f)
	}
}

// Close flushes the pipeline and stops the persist worker; later commits
// run inline on the mutator. Only the flush happens when no worker runs.
func (t *Tree) Close() {
	t.Flush()
	if t.pipe.stop(false) {
		// Back to inline commits: land bitmap words dirtied since the last
		// enqueue (GC frees, retargeting) and resume eager per-bit writes.
		t.nv.SetDeferredBits(false)
	}
}

// AbortPipeline stops the persist worker WITHOUT flushing: versions still
// in flight are dropped (they were never durable — after a crash this is
// the truth on the device anyway). Crash-recovery paths use it to stop
// the worker when the device no longer accepts writes; a stashed worker
// failure is discarded rather than re-raised. The arena keeps deferring
// bitmap words, so an aborted tree is fit only for Delete or to be
// dropped. Does nothing when no worker runs.
func (t *Tree) AbortPipeline() { t.pipe.stop(true) }

// stop ends the persist worker, draining its queue or (abort) dropping
// it, and reports whether a worker was running. Mutator-only.
func (p *pipeline) stop(abort bool) bool {
	if !p.async {
		return false
	}
	p.mu.Lock()
	p.closed = true
	if abort {
		p.aborted = true
		p.queue = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
	p.async = false
	return true
}

// rebind repoints the durable watermark after Compact rewrote the
// committed version into the fresh arena nv, which a running worker needs
// in deferred-bit mode (it was built with eager bits: the copy is its
// durable baseline). Mutator-only, queue drained (Compact flushes first).
func (p *pipeline) rebind(nv *pmem.Arena, root Ref, step uint64) {
	p.mu.Lock()
	p.durableRoot, p.durableStep = root, step
	p.mu.Unlock()
	if p.async {
		nv.SetDeferredBits(true)
	}
}

// durable returns the newest durably committed (root, step).
func (p *pipeline) durable() (Ref, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.durableRoot, p.durableStep
}

// checkFailure re-raises a stashed worker panic on the mutator, so a
// device failure during background writeback surfaces on the next
// Persist/Flush just as it would have surfaced during an inline commit.
func (p *pipeline) checkFailure() {
	p.mu.Lock()
	f := p.failure
	p.mu.Unlock()
	if f != nil {
		panic(f)
	}
}

// beginStage arms delta staging around the mutator's moveToNVBM — only
// when a worker will write the staged records back; inline commits find
// the merge's records already stored.
func (p *pipeline) beginStage() {
	p.staging = p.async
	p.stage = p.stage[:0]
}

// endStage disarms staging and returns the accumulated delta.
func (p *pipeline) endStage() []*stagedRec {
	p.staging = false
	delta := make([]*stagedRec, len(p.stage))
	copy(delta, p.stage)
	p.stage = p.stage[:0]
	return delta
}

// stageRecord captures the encoded record of a relocated octant and
// publishes it in the pending set for read-your-writes. Mutator-only,
// while staging.
func (p *pipeline) stageRecord(h pmem.Handle, o *Octant) {
	r := &stagedRec{h: h}
	o.encode(r.rec[:])
	p.stage = append(p.stage, r)
	p.pendMu.Lock()
	p.pending[h] = r
	p.pendMu.Unlock()
}

// patchParent updates the parent field of a record staged by the merge
// currently running, returning false when the slot is not pending (the
// caller then writes the device directly). Call only while staging: a
// pending record from an already-enqueued version is never patched — by
// construction reparentChanged only targets slots the ongoing merge just
// created — so the worker never writes bytes the mutator is mutating.
func (p *pipeline) patchParent(h pmem.Handle, parent Ref) bool {
	p.pendMu.Lock()
	r, ok := p.pending[h]
	if ok {
		putU32(r.rec[offParent:], uint32(parent))
	}
	p.pendMu.Unlock()
	return ok
}

// readPendingField copies len(out) bytes at field offset off from the
// pending record for h, if any. Safe from the mutator concurrently with
// the worker retiring OTHER entries.
func (p *pipeline) readPendingField(h pmem.Handle, off int, out []byte) bool {
	p.pendMu.RLock()
	r, ok := p.pending[h]
	if ok {
		copy(out, r.rec[off:])
	}
	p.pendMu.RUnlock()
	return ok
}

// inflightVersions snapshots the versions GC must keep live: the newest
// durable version (the on-device commit record names it) plus every
// enqueued version.
func (p *pipeline) inflightVersions() []VersionInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	vs := make([]VersionInfo, 0, len(p.queue)+1)
	if !p.durableRoot.IsNil() {
		vs = append(vs, VersionInfo{Root: p.durableRoot, Step: p.durableStep})
	}
	for _, req := range p.queue {
		vs = append(vs, VersionInfo{Root: req.root, Step: req.step})
	}
	return vs
}

// commit makes a merged version durable: handed to the worker when one
// runs, otherwise through commitBatch inline on the mutator. Mutator-only.
func (p *pipeline) commit(req *commitReq) {
	if p.async {
		p.enqueue(req)
		return
	}
	p.mu.Lock()
	hook := p.hook
	p.mu.Unlock()
	p.commitBatch([]*commitReq{req}, hook)
}

// enqueue hands a snapshotted version to the worker, blocking while the
// in-flight window is full (backpressure: the window may never outrun the
// fallback ring's headroom). Mutator-only.
func (p *pipeline) enqueue(req *commitReq) {
	p.mu.Lock()
	if len(p.queue) >= p.depth && p.failure == nil && !p.closed {
		p.stalls.Add(1)
		p.t.flight.Record(telemetry.FlightEvent{Kind: "persist_stall", Step: req.step, Value: uint64(len(p.queue))})
	}
	for len(p.queue) >= p.depth && p.failure == nil && !p.closed {
		p.cond.Wait()
	}
	if f := p.failure; f != nil {
		p.mu.Unlock()
		panic(f)
	}
	p.queue = append(p.queue, req)
	p.enqueued.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.t.flight.Record(telemetry.FlightEvent{Kind: "persist_enqueue", Step: req.step, Value: uint64(req.root)})
}

// worker is the background persist loop: it drains up to GroupCommit
// queued versions at a time and makes them durable in one commit. A panic
// (power cut, media failure) is stashed and re-raised on the mutator.
func (p *pipeline) worker() {
	defer close(p.done)
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			p.failure = r
			p.closed = true
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.aborted || len(p.queue) == 0 {
			// closed with an empty queue, or aborted outright: done.
			p.mu.Unlock()
			return
		}
		n := len(p.queue)
		if n > p.group {
			n = p.group
		}
		batch := make([]*commitReq, n)
		copy(batch, p.queue[:n])
		hook := p.hook
		p.mu.Unlock()

		// Entries stay in the queue during the writeback so GC's
		// inflightVersions snapshot keeps them live.
		if hook != nil {
			hook("writeback")
		}
		p.writeback(batch)
		p.commitBatch(batch, hook)
		p.retire(batch)

		p.mu.Lock()
		if p.aborted {
			p.mu.Unlock()
			return
		}
		p.queue = p.queue[n:]
		p.coalesced.Add(uint64(n - 1))
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// writeback stores a batch's delta records to the device, coalescing
// records that landed in consecutive arena slots into single span writes.
// The merge allocates relocation targets in near-sequential slots, so a
// step's delta typically collapses into a handful of device accesses —
// amortizing per-access latency and the exclusive lock (records are not
// line-aligned, so shared-lock writes could race the mutator's inline
// writes to adjacent slots on the per-line CRC shadow) across whole runs.
// Worker goroutine only.
func (p *pipeline) writeback(batch []*commitReq) {
	// All requests in a batch share one arena: Compact is the only arena
	// swap and it drains the queue first. Records are deduplicated by slot
	// offset, later versions winning, and sorted so runs are maximal. (A
	// slot cannot be freed and re-staged while pending — GC keeps in-flight
	// versions live — so duplicates do not occur today; the dedup keeps the span
	// assembly correct if that ever changes.)
	nv := batch[0].nv
	stride := nv.Stride()
	byOff := make(map[int]*stagedRec)
	for _, req := range batch {
		for _, r := range req.delta {
			off, _ := req.nv.SlotRange(r.h)
			byOff[off] = r
		}
	}
	offs := make([]int, 0, len(byOff))
	for off := range byOff {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	for i := 0; i < len(offs); {
		j := i + 1
		for j < len(offs) && offs[j] == offs[j-1]+stride {
			j++
		}
		if j == i+1 {
			nv.WriteExclusive(byOff[offs[i]].h, byOff[offs[i]].rec[:])
		} else {
			need := (j-i-1)*stride + RecordSize
			if cap(p.spanBuf) < need {
				p.spanBuf = make([]byte, need)
			}
			buf := p.spanBuf[:need]
			for k := range buf {
				buf[k] = 0
			}
			for k := i; k < j; k++ {
				copy(buf[(k-i)*stride:], byOff[offs[k]].rec[:])
			}
			nv.WriteSpanExclusive(byOff[offs[i]].h, buf)
		}
		i = j
	}
	// Land the batch's deferred allocation-bitmap snapshots (enqueue
	// order, last-wins per word) and the high-water mark. Must precede the
	// commit flip: once the flip makes these slots reachable, a recovered
	// allocator has to see them allocated.
	var bits []pmem.BitWord
	for _, req := range batch {
		bits = append(bits, req.bits...)
	}
	nv.WriteBitsExclusive(bits, batch[len(batch)-1].hw)
}

// commitBatch makes a batch of versions durable, every record of which is
// already on the device: one fallback-ring push of the version the batch
// supersedes, and one commit-record flip naming the batch's newest
// version, which then becomes the durable watermark. The worker calls it
// after writeback; at PipelineDepth 0 Persist calls it inline with a
// batch of one.
func (p *pipeline) commitBatch(batch []*commitReq, hook func(string)) {
	final := batch[len(batch)-1]
	durableRoot, durableStep := p.durable()
	p.rootMu.Lock()
	// The superseded durable version enters the fallback ring before the
	// commit record flips away from it: a crash inside the push damages at
	// most the ring's oldest entry, never the commit record. A crash
	// between the push and the flip leaves the ring entry duplicating the
	// still-committed root, which restore deduplicates.
	if !durableRoot.IsNil() && !durableRoot.InDRAM() {
		i := int(durableStep % histSlots)
		final.nv.SetRoot(histAddrSlot(i), uint64(durableRoot))
		final.nv.SetRoot(histStepSlot(i), durableStep)
	}
	if hook != nil {
		hook("ring")
	}
	// The step must be durable BEFORE the root pointer. If power fails
	// between the two stores, recovery sees the old root with the new step
	// number and resumes at step+1 — safely above every version tag in the
	// old tree. The reverse order would let a recovered process treat the
	// just-committed octants as its own working version and mutate them in
	// place.
	final.nv.SetRoot(rootSlotStep, final.step)
	final.nv.SetRoot(rootSlotAddr, uint64(final.root))
	p.rootMu.Unlock()
	if hook != nil {
		hook("commit")
	}
	p.mu.Lock()
	p.durableRoot, p.durableStep = final.root, final.step
	p.mu.Unlock()
	p.committed.Add(1)
	p.t.flight.Record(telemetry.FlightEvent{Kind: "commit", Step: final.step, Value: uint64(final.root)})
}

// retire drops a durable batch's records from the pending set, so mutator
// reads go back to the device. Worker goroutine only.
func (p *pipeline) retire(batch []*commitReq) {
	p.pendMu.Lock()
	for _, req := range batch {
		for _, r := range req.delta {
			delete(p.pending, r.h)
		}
	}
	p.pendMu.Unlock()
	for _, req := range batch {
		p.t.flight.Record(telemetry.FlightEvent{Kind: "persist_complete", Step: req.step, Value: uint64(req.root)})
	}
}
