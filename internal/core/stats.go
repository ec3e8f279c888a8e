package core

import (
	"fmt"

	"pmoctree/internal/pmem"
)

// VersionStats describes the structural sharing between the working
// version V(i) and the committed version V(i-1) — the data behind Figure 3
// of the paper.
type VersionStats struct {
	// CurOctants is the octant count of the working version.
	CurOctants int
	// PrevOctants is the octant count of the committed version.
	PrevOctants int
	// SharedOctants is the number of physical octants referenced by both.
	SharedOctants int
	// OverlapRatio is SharedOctants / CurOctants (the paper's definition).
	OverlapRatio float64
	// DRAMOctants and NVBMOctants split the working version by region.
	DRAMOctants int
	NVBMOctants int
	// LiveBytes is the total bytes held live across both arenas,
	// including superseded-version octants awaiting GC.
	LiveBytes int
	// SingleCopyBytes is what storing V(i) alone would take — the
	// denominator of the paper's memory-expansion factor.
	SingleCopyBytes int
	// ExpansionFactor is LiveBytes / SingleCopyBytes (1.01x at 99.5%
	// overlap in the paper).
	ExpansionFactor float64
}

// VersionStats measures sharing between the working and committed
// versions. Its walks charge no device: measuring an experiment must not
// perturb it.
func (t *Tree) VersionStats() VersionStats {
	prev := map[pmem.Handle]bool{}
	prevCount := 0
	t.walk(t.committed, func(r Ref, _ *Octant) bool {
		prevCount++
		if !r.InDRAM() {
			prev[r.Handle()] = true
		}
		return true
	})

	var vs VersionStats
	vs.PrevOctants = prevCount
	t.walk(t.cur, func(r Ref, _ *Octant) bool {
		vs.CurOctants++
		if r.InDRAM() {
			vs.DRAMOctants++
		} else {
			vs.NVBMOctants++
			if prev[r.Handle()] {
				vs.SharedOctants++
			}
		}
		return true
	})
	if vs.CurOctants > 0 {
		vs.OverlapRatio = float64(vs.SharedOctants) / float64(vs.CurOctants)
	}
	vs.LiveBytes = t.dram.BytesInUse() + t.nv.BytesInUse()
	vs.SingleCopyBytes = vs.CurOctants * RecordSize
	if vs.SingleCopyBytes > 0 {
		vs.ExpansionFactor = float64(vs.LiveBytes) / float64(vs.SingleCopyBytes)
	}
	return vs
}

// MemoryPerThousandOctants returns live bytes per 1000 working-version
// octants, the y-axis of Figure 3's second panel.
func (vs VersionStats) MemoryPerThousandOctants() float64 {
	if vs.CurOctants == 0 {
		return 0
	}
	return float64(vs.LiveBytes) / float64(vs.CurOctants) * 1000
}

// verrf builds a validation error tagged with the working version number,
// so a violation surfaced deep in a run is attributable to its step.
func (t *Tree) verrf(format string, args ...any) error {
	return fmt.Errorf("core: step %d: "+format, append([]any{t.step}, args...)...)
}

// Validate checks the structural invariants of both versions:
//
//   - child codes and levels are consistent with their parents;
//   - the committed version is closed under NVBM (the region invariant);
//   - every working-version octant's ref points at a live arena slot.
//
// It returns the first violation found (tagged with the working version
// number), or nil. It charges no device.
func (t *Tree) Validate() error {
	// Committed version must be NVBM-closed and structurally sound.
	var err error
	t.walk(t.committed, func(r Ref, o *Octant) bool {
		if r.InDRAM() {
			err = t.verrf("committed octant %v resides in DRAM", o.Code)
			return false
		}
		if !t.nv.Live(r.Handle()) {
			err = t.verrf("committed octant %v points at a freed slot", o.Code)
			return false
		}
		for i, c := range o.Children {
			if c.IsNil() {
				continue
			}
			if c.InDRAM() {
				err = t.verrf("committed octant %v has DRAM child %d", o.Code, i)
				return false
			}
			var co Octant
			quiet{t, false}.readInto(c, t.scratch[:], &co)
			if co.Code != o.Code.Child(i) {
				err = t.verrf("committed %v child %d has code %v", o.Code, i, co.Code)
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	// Working version: codes consistent, slots live.
	t.walk(t.cur, func(r Ref, o *Octant) bool {
		if !t.arenaFor(r).Live(r.Handle()) {
			err = t.verrf("working octant %v points at a freed slot", o.Code)
			return false
		}
		for i, c := range o.Children {
			if c.IsNil() {
				continue
			}
			var co Octant
			quiet{t, true}.readInto(c, t.scratch[:], &co)
			if co.Code != o.Code.Child(i) {
				err = t.verrf("working %v child %d has code %v", o.Code, i, co.Code)
				return false
			}
			// Shared NVBM octants must be closed under NVBM (they are
			// reachable from the committed root). Working-version NVBM
			// octants may reference DRAM mid-step; Persist patches those
			// edges before commit.
			if !r.InDRAM() && !t.inPlace(r, o) && c.InDRAM() {
				err = t.verrf("shared NVBM octant %v references DRAM child %v", o.Code, co.Code)
				return false
			}
		}
		return true
	})
	return err
}
