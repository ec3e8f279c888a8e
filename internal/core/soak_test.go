package core

import (
	"math/rand"
	"os"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// TestSoak runs long random operation scripts against the versioned-tree
// invariants. Enable with PMOCTREE_SOAK=1.
func TestSoak(t *testing.T) {
	if os.Getenv("PMOCTREE_SOAK") == "" {
		t.Skip("set PMOCTREE_SOAK=1 to run")
	}
	for trial := 0; trial < 40; trial++ {
		seed := int64(trial * 7919)
		r := rand.New(rand.NewSource(seed))
		nv := nvbm.New(nvbm.NVBM, 0)
		tr := Create(Config{NVBMDevice: nv, DRAMBudgetOctants: 32 + r.Intn(512), Seed: seed,
			ThresholdDRAM: 0.5 + r.Float64()*0.4, GCEvery: 1 + r.Intn(3)})
		tr.SetFeatures(func(c morton.Code) bool {
			x, _, _ := c.Center()
			return x > 0.5
		})
		last := leafSet(tr, tr.CommittedRoot())
		for op := 0; op < 60; op++ {
			pred := sphere(r.Float64(), r.Float64(), r.Float64(), 0.1+r.Float64()*0.25, 0.05+r.Float64()*0.2)
			switch r.Intn(6) {
			case 0:
				tr.RefineWhere(pred, uint8(3+r.Intn(2)))
			case 1:
				tr.CoarsenWhere(pred)
			case 2:
				tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
					if pred(c) {
						d[r.Intn(DataWords)] = r.Float64()
						return true
					}
					return false
				})
			case 3:
				tr.Balance()
			case 4:
				tr.Persist()
				last = leafSet(tr, tr.CommittedRoot())
			case 5:
				// Crash and restore mid-script.
				restored, err := Restore(Config{NVBMDevice: nv, Seed: seed})
				if err != nil {
					t.Fatalf("trial %d op %d: restore: %v", trial, op, err)
				}
				tr = restored
				tr.SetFeatures(func(c morton.Code) bool {
					x, _, _ := c.Center()
					return x > 0.5
				})
			}
			got := leafSet(tr, tr.CommittedRoot())
			if !equalLeafSets(got, last) {
				t.Fatalf("trial %d op %d: committed version drifted", trial, op)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
	}
}
