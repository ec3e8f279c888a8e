package core

import (
	"fmt"
	"sync/atomic"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
	"pmoctree/internal/tile"
)

// MVCC snapshot pinning. A committed PM-octree version is immutable —
// commit is a single root-pointer store and COW never rewrites a committed
// octant — so a committed root can be handed to reader goroutines as a
// stable snapshot while the writer keeps refining, committing, collecting.
// The only thing that could pull the rug out is GC (which reclaims octants
// reachable solely from superseded versions) and Compact/Delete (which
// replace the arena wholesale). Pins close that gap: GC treats every
// pinned root as a retention root, and Compact refuses to run while pins
// are outstanding.
//
// Threading contract: PinCommitted/PinVersion/RetainedVersions run on the
// writer thread (they read writer-owned fields). VersionPin's Retain,
// Release, Refs and all its read methods are safe from any goroutine, and
// safe concurrently with the writer mutating the tree — reads go through
// per-call buffers straight to the pinned arena, never through the shared
// scratch or access accounting.

// ErrPinned is returned (wrapped) by operations that would invalidate
// outstanding snapshot pins, such as Compact.
var ErrPinned = fmt.Errorf("core: committed versions are pinned")

// VersionPin holds one committed version alive for concurrent readers.
// It is reference counted: the creating call owns one reference, Retain
// adds one per additional holder, Release drops one. When the count hits
// zero the pin unregisters itself and the next GC pass may reclaim any
// octant reachable only from it.
type VersionPin struct {
	t    *Tree
	nv   *pmem.Arena  // the arena the version lives in, captured at pin time
	dev  *nvbm.Device // its device, for modeled read charging
	root Ref
	step uint64
	refs atomic.Int64

	// leaves is a copy of the writer's leaf index taken at pin time when
	// it equals the pinned version (PinCommitted), else nil.
	leaves *tile.Store
}

// ensurePins lazily initializes the writer-side pin registry.
func (t *Tree) ensurePins() {
	if t.pins == nil {
		t.pins = make(map[*VersionPin]struct{})
	}
}

// PinCommitted pins the currently committed version V(i-1) and returns the
// pin holding one reference. Writer thread only.
//
// When the writer's leaf index is the pinned version's, the pin carries a
// copy of it (Leaves), so a reader need not walk the version to index it:
// no topology or payload change may have followed the commit, the index
// must be valid with no kernel edit pending, and the tree may hold no
// filler leaf (the index does not mark them).
func (t *Tree) PinCommitted() *VersionPin {
	if t.committed.IsNil() || t.committed.InDRAM() {
		panic("core: no committed NVBM version to pin")
	}
	p := t.registerPin(t.committed, t.committedStep)
	if t.contentSeq == t.commitSeq && !t.fillers &&
		t.idx.ValidFor(t.contentSeq) && !(t.lent && t.idx.HasDirty()) {
		st := t.idx.CloneLeaves()
		p.leaves = &st
	}
	return p
}

// PinVersion pins an arbitrary committed version, typically one of the
// fallback-ring versions enumerated by RetainedVersions, so a server can
// offer history older than the newest commit. The root must be a live
// NVBM octant; deep validation is the caller's business (RetainedVersions
// already performs it). Writer thread only.
func (t *Tree) PinVersion(root Ref, step uint64) (*VersionPin, error) {
	if root.IsNil() || root.InDRAM() || !t.nv.Live(root.Handle()) {
		return nil, fmt.Errorf("core: version step %d root %v is not a live NVBM octant", step, root)
	}
	return t.registerPin(root, step), nil
}

func (t *Tree) registerPin(root Ref, step uint64) *VersionPin {
	p := &VersionPin{t: t, nv: t.nv, dev: t.cfg.NVBMDevice, root: root, step: step}
	p.refs.Store(1)
	t.pinMu.Lock()
	t.ensurePins()
	t.pins[p] = struct{}{}
	t.pinMu.Unlock()
	return p
}

// PinnedVersions returns the number of currently registered pins. Safe
// from any goroutine.
func (t *Tree) PinnedVersions() int {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	return len(t.pins)
}

// VersionInfo identifies one restorable committed version.
type VersionInfo struct {
	Root Ref
	Step uint64
}

// RetainedVersions enumerates the fallback-ring versions that are still
// deeply intact (every reachable octant live, CRC-clean, well-formed),
// newest first, excluding the currently committed version. With
// Config.RetainVersions = k these are the k superseded versions GC keeps
// restorable; with retention off the ring usually points at reclaimed
// slots and the result is empty. Writer thread only (deep verification
// uses the shared scratch buffer).
func (t *Tree) RetainedVersions() []VersionInfo {
	var out []VersionInfo
	for _, e := range t.ringVersions() {
		if e.Root.IsNil() || e.Root.InDRAM() || e.Root == t.committed {
			continue
		}
		if t.candidateError(e.Root, e.Step, true) != nil {
			continue
		}
		out = append(out, e)
	}
	// Ring order is (step mod histSlots); restore newest-first step order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Step > out[j-1].Step; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Retain adds a reference and returns p for chaining. Panics if the pin
// already dropped to zero — a released version may already be reclaimed.
func (p *VersionPin) Retain() *VersionPin {
	for {
		n := p.refs.Load()
		if n <= 0 {
			panic("core: Retain on a fully released VersionPin")
		}
		if p.refs.CompareAndSwap(n, n+1) {
			return p
		}
	}
}

// Release drops one reference. When the last reference goes, the pin
// unregisters itself; the version stays readable until the writer's next
// GC pass actually reclaims it, but callers must not rely on that.
func (p *VersionPin) Release() {
	n := p.refs.Add(-1)
	if n < 0 {
		panic("core: VersionPin released more often than retained")
	}
	if n == 0 {
		t := p.t
		t.pinMu.Lock()
		delete(t.pins, p)
		t.pinMu.Unlock()
	}
}

// Refs returns the current reference count.
func (p *VersionPin) Refs() int { return int(p.refs.Load()) }

// Root returns the pinned version's root ref.
func (p *VersionPin) Root() Ref { return p.root }

// Step returns the pinned version's step number.
func (p *VersionPin) Step() uint64 { return p.step }

// Leaves returns the copy of the writer's leaf index PinCommitted took
// for this version — its leaves in Z-order with their payload, codes and
// field words only — or nil when the pin carries none. Read-only.
func (p *VersionPin) Leaves() *tile.Store { return p.leaves }

// readInto performs a charged, read-only octant load from the pinned
// arena into a caller-provided buffer. The read-only guard: a pinned
// version is NVBM-closed by the region invariant, so any DRAM ref reached
// from it means the handle escaped into mutable working-version state.
func (p *VersionPin) readInto(r Ref, buf []byte, o *Octant) {
	if r.InDRAM() {
		panic(fmt.Sprintf("core: pinned version step %d reached DRAM ref %v; snapshots are read-only over NVBM", p.step, r))
	}
	p.nv.Read(r.Handle(), buf)
	o.decode(buf)
}

// ForEachNode visits every octant of the pinned version in Z-order
// pre-order. Return false from fn to stop early. Safe from any goroutine;
// the walk charges one device read per visited octant, exactly like the
// single-threaded committed walk.
func (p *VersionPin) ForEachNode(fn func(r Ref, o *Octant) bool) {
	var buf [RecordSize]byte
	p.walk(p.root, buf[:], fn)
}

func (p *VersionPin) walk(r Ref, buf []byte, fn func(Ref, *Octant) bool) bool {
	if r.IsNil() {
		return true
	}
	var o Octant
	p.readInto(r, buf, &o)
	if !fn(r, &o) {
		return false
	}
	for _, c := range o.Children {
		if !c.IsNil() && !p.walk(c, buf, fn) {
			return false
		}
	}
	return true
}

// FindLeaf descends to the deepest pinned-version octant containing code,
// charging one device read per octant on the path: level+1 for a leaf at
// that level. Safe from any goroutine.
func (p *VersionPin) FindLeaf(code morton.Code) (Ref, Octant) {
	var buf [RecordSize]byte
	r := p.root
	var o Octant
	p.readInto(r, buf[:], &o)
	level := code.Level()
	for d := uint8(1); d <= level; d++ {
		next := o.Children[code.AncestorAt(d).ChildIndex()]
		if next.IsNil() {
			return r, o
		}
		r = next
		p.readInto(r, buf[:], &o)
	}
	return r, o
}

// ChargeReadsModeled accounts n modeled device reads of sz bytes each
// against the pinned device, for read paths that answer from host-side
// indexes built over the version (the serving layer's Morton leaf index)
// but semantically consult persistent octants. It returns the modeled
// nanoseconds of device time the reads cost, so serving traces can
// attribute device-read time to the request that incurred it.
func (p *VersionPin) ChargeReadsModeled(n, sz int) uint64 {
	p.dev.ChargeReadN(n, sz)
	return p.dev.ModeledReadCost(n, sz)
}

// ReadsModeled returns the modeled nanoseconds n device reads of sz bytes
// cost, without charging them: the attribution half of ChargeReadsModeled,
// for reads a pin's own descent (FindLeaf) already charged.
func (p *VersionPin) ReadsModeled(n, sz int) uint64 {
	return p.dev.ModeledReadCost(n, sz)
}
