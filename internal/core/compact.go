package core

import (
	"fmt"

	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
)

// Compact rewrites the committed version into a fresh NVBM region in
// Z-order and switches the tree to it. Long-running simulations churn the
// arena — the high-water mark only grows, free slots scatter, and the
// recovery bitmap scan is proportional to high water, not to live data —
// so periodic compaction restores a dense, traversal-ordered layout (an
// extension; the paper's runs are short enough not to need it).
//
// The working version must be committed first (call Persist); Compact
// refuses to run mid-step. It returns the retired device, which the
// caller may discard or keep as a cold snapshot; the tree's config now
// points at the new region.
func (t *Tree) Compact() (retired *nvbm.Device, err error) {
	defer t.span("Compact").End()
	// The retired region keeps an exact allocation bitmap.
	t.Flush()
	if t.cur != t.committed {
		return nil, fmt.Errorf("core: compaction requires a committed state; call Persist first")
	}
	if t.cur.IsNil() {
		return nil, fmt.Errorf("core: nothing to compact")
	}
	// Compaction replaces the arena wholesale; every outstanding snapshot
	// pin would be left pointing into the retired region.
	if n := t.PinnedVersions(); n > 0 {
		return nil, fmt.Errorf("%w: %d pinned version(s) outstanding; close their snapshots first", ErrPinned, n)
	}
	newDev := nvbm.New(nvbm.NVBM, 0)
	newArena := pmem.NewArena(newDev, RecordSize)

	// Copy pre-order with parent threading: allocate the destination
	// slot before descending so children are written with final parent
	// refs, exactly like the persist merge.
	var copyTree func(r, parent Ref) Ref
	copyTree = func(r, parent Ref) Ref {
		o := t.readOct(r)
		nr := makeRef(false, newArena.AllocRaw())
		o.Parent = parent
		o.Version = 0 // committed content; any working step exceeds it
		for i, c := range o.Children {
			if !c.IsNil() {
				o.Children[i] = copyTree(c, nr)
			}
		}
		o.encode(t.scratch[:])
		newArena.Write(nr.Handle(), t.scratch[:])
		return nr
	}
	newRoot := copyTree(t.committed, NilRef)
	landBits(newArena)
	newArena.SetRoot(rootSlotStep, t.step-1)
	newArena.SetRoot(rootSlotAddr, uint64(newRoot))
	if t.cfg.NVBMBudgetOctants > 0 {
		newArena.SetBudget(t.cfg.NVBMBudgetOctants)
	}

	retired = t.cfg.NVBMDevice
	t.cfg.NVBMDevice = newDev
	t.nv = newArena
	t.committed = newRoot
	t.cur = newRoot
	// The new commit record names step t.step-1; the next commit pushes
	// the compacted root onto the fallback ring under that step.
	t.committedStep = t.step - 1
	// The copy carries version tag 0 and no ledger history: the next
	// collection marks the new arena and reseeds from it.
	t.led = newLedger("compact", newRoot, t.committedStep)
	// The leaf index holds no refs and the content is the same, so it
	// stays valid although every NVBM ref changed identity.
	return retired, nil
}
