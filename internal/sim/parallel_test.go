package sim

import (
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
)

// leafSnapshot flattens a mesh into an ordered (code, data) listing for
// exact comparison.
type leafSnapshot struct {
	code morton.Code
	data [DataWords]float64
}

func snapshot(m Mesh) []leafSnapshot {
	var out []leafSnapshot
	m.ForEachLeaf(func(c morton.Code, d [DataWords]float64) bool {
		out = append(out, leafSnapshot{c, d})
		return true
	})
	return out
}

// TestStepWorkersDeterminism: running the AMR driver with a worker pool
// must evolve the mesh exactly as the serial driver does — same counts
// each step, same leaves, same field words, same liquid volume.
func TestStepWorkersDeterminism(t *testing.T) {
	const steps = 6

	run := func(workers int) ([]StepCounts, []leafSnapshot, float64, *core.Tree) {
		m := core.Create(core.Config{})
		f := NewDroplet(DropletConfig{Steps: steps})
		counts := make([]StepCounts, steps)
		for s := 0; s < steps; s++ {
			counts[s] = StepWorkers(m, f, s, 5, workers)
		}
		return counts, snapshot(m), LiquidVolume(m), m
	}

	refCounts, refLeaves, refVol, _ := run(1)
	if len(refLeaves) == 0 {
		t.Fatal("serial run produced an empty mesh")
	}
	for _, workers := range []int{2, 4, 7} {
		counts, leaves, vol, m := run(workers)
		for s := range counts {
			if counts[s] != refCounts[s] {
				t.Errorf("workers=%d step %d: counts %+v, serial %+v", workers, s, counts[s], refCounts[s])
			}
		}
		if len(leaves) != len(refLeaves) {
			t.Fatalf("workers=%d: %d leaves, serial %d", workers, len(leaves), len(refLeaves))
		}
		for i := range leaves {
			if leaves[i].code != refLeaves[i].code {
				t.Fatalf("workers=%d: leaf %d code %v, serial %v", workers, i, leaves[i].code, refLeaves[i].code)
			}
			if leaves[i].data != refLeaves[i].data {
				t.Fatalf("workers=%d: leaf %d (%v) field words differ from serial", workers, i, leaves[i].code)
			}
		}
		if vol != refVol {
			t.Errorf("workers=%d: liquid volume %v, serial %v", workers, vol, refVol)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestStepForcedPoolDeterminism drives the tiled SoA solve path with
// pools forced past the GOMAXPROCS clamp, so the parallel tile sweeps
// run on real goroutines (and under -race, concurrently) even on
// single-CPU machines — and still evolve the mesh bit-identically to the
// serial driver through randomized-looking refine/coarsen churn.
func TestStepForcedPoolDeterminism(t *testing.T) {
	const steps = 6

	run := func(pool *parallel.Pool) ([]StepCounts, []leafSnapshot, *core.Tree) {
		m := core.Create(core.Config{})
		f := NewDroplet(DropletConfig{Steps: steps})
		counts := make([]StepCounts, steps)
		for s := 0; s < steps; s++ {
			counts[s] = StepFieldPool(m, f, s, 5, pool)
		}
		return counts, snapshot(m), m
	}

	refCounts, refLeaves, _ := run(nil)
	for _, workers := range []int{2, 4, 7} {
		counts, leaves, m := run(parallel.NewForced(workers))
		for s := range counts {
			if counts[s] != refCounts[s] {
				t.Errorf("forced=%d step %d: counts %+v, serial %+v", workers, s, counts[s], refCounts[s])
			}
		}
		if len(leaves) != len(refLeaves) {
			t.Fatalf("forced=%d: %d leaves, serial %d", workers, len(leaves), len(refLeaves))
		}
		for i := range leaves {
			if leaves[i] != refLeaves[i] {
				t.Fatalf("forced=%d: leaf %d (%v) diverges from serial", workers, i, leaves[i].code)
			}
		}
		if err := m.Validate(); err != nil {
			t.Errorf("forced=%d: %v", workers, err)
		}
	}
}

// TestStepWorkersMatchesStepField: StepField is the workers=1 special
// case of the pool driver, so the two entry points must agree exactly.
func TestStepWorkersMatchesStepField(t *testing.T) {
	mA := core.Create(core.Config{})
	mB := core.Create(core.Config{})
	fA := NewDroplet(DropletConfig{Steps: 4})
	fB := NewDroplet(DropletConfig{Steps: 4})
	for s := 0; s < 4; s++ {
		a := StepField(mA, fA, s, 4)
		b := StepWorkers(mB, fB, s, 4, 1)
		if a != b {
			t.Fatalf("step %d: StepField %+v, StepWorkers(1) %+v", s, a, b)
		}
	}
	la, lb := snapshot(mA), snapshot(mB)
	if len(la) != len(lb) {
		t.Fatalf("leaf counts diverge: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("leaf %d diverges between entry points", i)
		}
	}
}

// TestStepDeviceCountsWorkerInvariant: on a core.Tree the step's modeled
// device traffic does not depend on the worker count — the pool only
// pre-evaluates predicates over the leaf index, which costs no walk, and
// the Solve is one path. Per-step read and write counts of both devices,
// Persist included, are identical at workers 1, 2 and 4.
func TestStepDeviceCountsWorkerInvariant(t *testing.T) {
	const steps, maxLevel = 12, 5
	type devCounts struct{ nvR, nvW, nvRB, nvWB, drR, drW uint64 }
	run := func(pool *parallel.Pool) []devCounts {
		nv, dram := nvbm.New(nvbm.NVBM, 0), nvbm.New(nvbm.DRAM, 0)
		m := core.Create(core.Config{NVBMDevice: nv, DRAMDevice: dram, DRAMBudgetOctants: 512})
		f := NewDroplet(DropletConfig{Steps: steps})
		out := make([]devCounts, steps)
		for s := 1; s <= steps; s++ {
			n0, d0 := nv.Stats(), dram.Stats()
			StepFieldPool(m, f, s, maxLevel, pool)
			m.SetFeatures(FeatureOf(f, s+1))
			m.Persist()
			n1, d1 := nv.Stats(), dram.Stats()
			out[s-1] = devCounts{
				n1.Reads - n0.Reads, n1.Writes - n0.Writes, n1.ReadBytes - n0.ReadBytes, n1.WriteBytes - n0.WriteBytes,
				d1.Reads - d0.Reads, d1.Writes - d0.Writes,
			}
		}
		if m.Stats().Merges == 0 {
			t.Fatal("the run never evicted from C0")
		}
		return out
	}
	ref := run(nil)
	for _, workers := range []int{2, 4} {
		got := run(parallel.NewForced(workers))
		for s := range ref {
			if got[s] != ref[s] {
				t.Errorf("workers=%d step %d: device counts %+v, serial %+v", workers, s+1, got[s], ref[s])
			}
		}
	}
}
