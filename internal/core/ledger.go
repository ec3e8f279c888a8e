package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pmoctree/internal/pmem"
)

// ledger is GC's volatile lifetime record of the NVBM arena (DESIGN 3).
// Under two-version COW an octant lives in a contiguous run of versions:
// it is born in the step that allocates it and dies in the step whose
// copy, collapse or construct drops it from the working version. A slot
// dropped at step d with birth b is held by version v iff b ≤ v < d, so a
// collection frees exactly the dropped slots no live version holds —
// the set mark-and-sweep would free — without reading the device.
//
// Births live in born, one word per slot. A drop appends the slot to its
// step's group and sets its dropped bit; every live slot whose bit is
// clear therefore belongs to the working version. Each commit records its
// root, so a collection can tell an intact live version (its root is the
// one committed at its step) from a stale or damaged one.
type ledger struct {
	born    []uint64       // birth step per slot index, valid while the slot is live
	dropped []uint64       // bitset: the working version dropped the slot (it is in groups or unknown)
	groups  []deathGroup   // dropped slots not yet freed, one group per death step, ascending
	unknown []pmem.Handle  // dropped slots whose death step no collection could place
	roots   map[uint64]Ref // committed step → its root

	// full, when set, names why the next collection must mark: the ledger
	// has not yet seen the arena it describes (after Restore or Compact).
	full string

	held  int // dropped slots a live version still held after the last collection
	fulls int // collections that ran the full mark
}

// deathGroup is the dropped slots of one step.
type deathGroup struct {
	step uint64
	hs   []pmem.Handle
}

// newLedger returns an empty ledger whose only recorded version is the
// committed one. A non-empty full makes the first collection mark.
func newLedger(full string, root Ref, step uint64) ledger {
	return ledger{full: full, roots: map[uint64]Ref{step: root}}
}

// ensure sizes the per-slot arrays to cover n slots.
func (l *ledger) ensure(n int) {
	if n <= len(l.born) {
		return
	}
	c := max(n, 2*len(l.born), 1024)
	born := make([]uint64, c)
	copy(born, l.born)
	l.born = born
	if w := (c + 63) / 64; w > len(l.dropped) {
		d := make([]uint64, w)
		copy(d, l.dropped)
		l.dropped = d
	}
}

// birth records that slot h joined the working version at step.
func (l *ledger) birth(h pmem.Handle, step uint64) {
	i := int(h - 1)
	l.ensure(i + 1)
	l.born[i] = step
	l.dropped[i/64] &^= 1 << (i % 64)
}

// birthRun records births for the n consecutive slots from h.
func (l *ledger) birthRun(h pmem.Handle, n int, step uint64) {
	i := int(h - 1)
	l.ensure(i + n)
	for k := i; k < i+n; k++ {
		l.born[k] = step
		l.dropped[k/64] &^= 1 << (k % 64)
	}
}

// die records that the working version dropped slot h at step. birth is
// the octant's version tag, which is its birth step even where the ledger
// has not seen the slot born (a restored arena).
func (l *ledger) die(h pmem.Handle, birth, step uint64) {
	i := int(h - 1)
	l.ensure(i + 1)
	if l.dropped[i/64]&(1<<(i%64)) != 0 {
		return
	}
	l.born[i] = birth
	l.dropped[i/64] |= 1 << (i % 64)
	g := l.group(step)
	g.hs = append(g.hs, h)
}

// group returns step's death group, appending it (and reusing a retired
// group's buffer) when step is newer than the last one.
func (l *ledger) group(step uint64) *deathGroup {
	n := len(l.groups)
	if n > 0 && l.groups[n-1].step == step {
		return &l.groups[n-1]
	}
	if n < cap(l.groups) {
		l.groups = l.groups[:n+1]
	} else {
		l.groups = append(l.groups, deathGroup{})
	}
	g := &l.groups[n]
	g.step, g.hs = step, g.hs[:0]
	return g
}

// dropWorking records the death at step of every slot of the working
// version — the live slots not yet dropped — which a construct replaces
// wholesale. It reads the allocation mirror, not the tree.
func (l *ledger) dropWorking(live []uint64, step uint64) {
	l.ensure(64 * len(live))
	g := l.group(step)
	for wi, w := range live {
		w &^= l.dropped[wi]
		l.dropped[wi] |= w
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			g.hs = append(g.hs, pmem.Handle(wi*64+b+1))
		}
	}
}

// heldBy reports whether some live version v (ascending steps) satisfies
// birth ≤ v < death.
func heldBy(live []uint64, birth, death uint64) bool {
	for _, v := range live {
		if v >= death {
			return false
		}
		if v >= birth {
			return true
		}
	}
	return false
}

// collect moves every dropped slot no live version holds into dead (one
// bit per slot index) and keeps the rest for a later collection.
func (l *ledger) collect(live []uint64, dead []uint64) {
	l.held = l.retain(func(i int, death uint64) bool {
		if heldBy(live, l.born[i], death) {
			return true
		}
		dead[i/64] |= 1 << (i % 64)
		return false
	})
}

// retain keeps the dropped slots (index, death step) for which keep holds,
// drops emptied groups, and returns how many slots it kept.
func (l *ledger) retain(keep func(i int, death uint64) bool) int {
	kept, n := 0, 0
	for gi := range l.groups {
		g := &l.groups[gi]
		hs := g.hs[:0]
		for _, h := range g.hs {
			if keep(int(h-1), g.step) {
				hs = append(hs, h)
			}
		}
		g.hs = hs
		if len(hs) > 0 {
			// Swap rather than overwrite, so retired buffers are reused.
			l.groups[kept], l.groups[gi] = l.groups[gi], l.groups[kept]
			kept++
			n += len(hs)
		}
	}
	l.groups = l.groups[:kept]
	return n
}

// reseed records what a full mark read of slot h: its birth from the
// version tag, and — when only a version other than the working one
// reaches it and no drop was recorded — a death the ledger cannot place.
func (l *ledger) reseed(h pmem.Handle, birth uint64, working bool) {
	i := int(h - 1)
	l.ensure(i + 1)
	l.born[i] = birth
	if !working && l.dropped[i/64]&(1<<(i%64)) == 0 {
		l.dropped[i/64] |= 1 << (i % 64)
		l.unknown = append(l.unknown, h)
	}
}

// forgetUnknown clears the unplaced deaths before a full mark, which
// finds again whichever of them an older version still reaches.
func (l *ledger) forgetUnknown() {
	for _, h := range l.unknown {
		i := int(h - 1)
		l.dropped[i/64] &^= 1 << (i % 64)
	}
	l.unknown = l.unknown[:0]
}

// afterSweep drops the freed slots from the death groups once a full
// mark-and-sweep has run, leaving the ledger seeded.
func (l *ledger) afterSweep(live []uint64) {
	l.held = len(l.unknown) + l.retain(func(i int, _ uint64) bool {
		return i/64 < len(live) && live[i/64]&(1<<(i%64)) != 0
	})
	l.full = ""
}

// placed reports whether the live version (root, step) is one the ledger
// describes: the root committed at step, in a slot born no later than it
// (a recycled slot is born after every version it could be confused with).
func (l *ledger) placed(root Ref, step uint64) bool {
	i := int(root.Handle() - 1)
	return l.roots[step] == root && i < len(l.born) && l.born[i] <= step
}

// prune forgets the roots of versions older than every live one.
func (l *ledger) prune(oldest uint64) {
	for s := range l.roots {
		if s < oldest {
			delete(l.roots, s)
		}
	}
}

// Ledger self-check: with it on, every ledger collection also runs the
// mark-and-sweep oracle and compares the two freed sets.
var ledgerCheck struct {
	on  atomic.Bool
	mu  sync.Mutex
	err error
}

// SetLedgerCheck turns GC's ledger self-check on or off for every tree in
// the process. With it on, each collection the ledger answers also runs
// the mark-and-sweep oracle, which charges no device, and records
// the first difference between the two freed sets (LedgerCheckError). It
// costs a whole-arena mark per collection; tests and soaks use it.
func SetLedgerCheck(on bool) { ledgerCheck.on.Store(on) }

// LedgerCheckError returns the first ledger/oracle difference recorded
// since the process started, or nil.
func LedgerCheckError() error {
	ledgerCheck.mu.Lock()
	defer ledgerCheck.mu.Unlock()
	return ledgerCheck.err
}

func recordLedgerMismatch(err error) {
	ledgerCheck.mu.Lock()
	if ledgerCheck.err == nil {
		ledgerCheck.err = err
	}
	ledgerCheck.mu.Unlock()
}

// checkLedger compares the ledger's freed set dead with the oracle's: the
// live slots a full mark of the same versions leaves unmarked. The oracle
// charges no device and touches no tree state.
func (t *Tree) checkLedger(vs []VersionInfo, dead []uint64) {
	marked := make([]uint64, len(dead))
	t.markVersions(quiet{t, false}, vs, marked, nil)
	for wi, w := range t.nv.LiveWords() {
		if wi >= len(dead) {
			break
		}
		if want, got := w&^marked[wi], w&dead[wi]; want != got {
			recordLedgerMismatch(fmt.Errorf("core: GC ledger at step %d frees slot word %d as %#x, mark-and-sweep as %#x",
				t.step, wi, got, want))
			return
		}
	}
}
