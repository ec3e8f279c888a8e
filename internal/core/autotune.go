package core

// AutoTuner adjusts the C0 DRAM budget between time steps — the paper's
// stated future work (§6: "we plan to automate the setting of DRAM size
// for the C0 tree in order to provide better memory efficiency under high
// concurrency").
//
// The policy reacts to two observable signals:
//
//   - merge pressure: C0→C1 evictions during a step mean the working set
//     outgrew the budget, so the budget grows;
//   - idle capacity: sustained low DRAM utilization means memory is
//     reserved but unused (hurting co-located ranks), so the budget
//     shrinks.
//
// Growth is multiplicative and shrinking is slow and hysteretic, the
// usual shape for a resource controller that must not oscillate.
type AutoTuner struct {
	// MinBudget and MaxBudget bound the C0 budget in octants.
	MinBudget, MaxBudget int
	// GrowFactor multiplies the budget when merges occurred (default 1.5).
	GrowFactor float64
	// ShrinkFactor multiplies the budget after sustained idleness
	// (default 0.8).
	ShrinkFactor float64
	// ShrinkBelow is the utilization under which a step counts as idle
	// (default 0.4).
	ShrinkBelow float64
	// IdleSteps is how many consecutive idle steps trigger a shrink
	// (default 3).
	IdleSteps int

	idleRun    int
	lastMerges int
	// Adjustments counts budget changes made.
	Adjustments int
}

// NewAutoTuner returns a tuner with the default policy over the given
// budget bounds.
func NewAutoTuner(minBudget, maxBudget int) *AutoTuner {
	return &AutoTuner{
		MinBudget:    minBudget,
		MaxBudget:    maxBudget,
		GrowFactor:   1.5,
		ShrinkFactor: 0.8,
		ShrinkBelow:  0.4,
		IdleSteps:    3,
	}
}

// Observe inspects the tree after a completed step (call it right after
// Persist) and adjusts the C0 budget if warranted. It returns the budget
// now in effect.
func (a *AutoTuner) Observe(t *Tree) int {
	merges := t.Stats().Merges
	mergedThisStep := merges - a.lastMerges
	a.lastMerges = merges
	budget := t.DRAMBudget()

	switch {
	case mergedThisStep > 0:
		a.idleRun = 0
		grown := int(float64(budget) * a.GrowFactor)
		if grown == budget {
			grown = budget + 1
		}
		if grown > a.MaxBudget {
			grown = a.MaxBudget
		}
		if grown != budget {
			t.SetDRAMBudget(grown)
			a.Adjustments++
		}
	case t.LastPeakDRAMUtilization() < a.ShrinkBelow:
		a.idleRun++
		if a.idleRun >= a.IdleSteps {
			a.idleRun = 0
			shrunk := int(float64(budget) * a.ShrinkFactor)
			if shrunk < a.MinBudget {
				shrunk = a.MinBudget
			}
			if shrunk != budget {
				t.SetDRAMBudget(shrunk)
				a.Adjustments++
			}
		}
	default:
		a.idleRun = 0
	}
	return t.DRAMBudget()
}

// NVBMDataOffset returns the offset where octant payloads start in the
// persistent region; bytes below it are allocator metadata.
func (t *Tree) NVBMDataOffset() int { return t.nv.DataOffset() }

// DRAMBudget returns the current C0 capacity in octants.
func (t *Tree) DRAMBudget() int { return t.cfg.DRAMBudgetOctants }

// LastPeakDRAMUtilization returns the highest C0 utilization reached
// during the previous step (Persist drains C0, so the instantaneous
// post-step value is near zero and useless for capacity decisions).
func (t *Tree) LastPeakDRAMUtilization() float64 { return t.lastPeakDRAMUtil }

// SetDRAMBudget changes the C0 capacity at a step boundary. The next
// layout pass recomputes L_sub for the new size; if the budget shrank
// below current usage, the watermark eviction drains C0 on the next
// operation.
func (t *Tree) SetDRAMBudget(octants int) {
	if octants < 1 {
		octants = 1
	}
	t.cfg.DRAMBudgetOctants = octants
	t.dram.SetBudget(octants)
}
