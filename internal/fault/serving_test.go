package fault

import (
	"testing"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
)

// TestPipelineServeRaceSoak is the concurrency soak of the writer and the
// readers: the mutator steps and commits inline while MVCC snapshot
// readers query pinned committed versions, all at once, no faults, on a
// Config that still carries the deprecated PipelineDepth and GroupCommit
// (Persist ignores them). Pinned snapshots must stay bit-identical across
// double reads, and the run must end clean under -race.
func TestPipelineServeRaceSoak(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	tree := core.Create(core.Config{
		NVBMDevice:        nvbm.New(nvbm.NVBM, 0),
		DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
		DRAMBudgetOctants: 4096,
		Seed:              11,
		PipelineDepth:     3,
		GroupCommit:       2,
	})
	d := sim.NewDroplet(sim.DropletConfig{Steps: steps + 2})
	tree.SetFeatures(d.Feature(1))
	srv := startChaosServing(4, tree)

	for s := 1; s <= steps; s++ {
		sim.Step(tree, d, s, 4)
		tree.SetFeatures(d.Feature(s + 1))
		tree.Persist()
		if ds := tree.DurableStep(); ds != uint64(s) {
			t.Fatalf("step %d: durable step %d when Persist returned", s, ds)
		}
		srv.publish()
	}
	tree.Flush()
	var qs QueryStats
	srv.stop(&qs)
	if qs.Mismatches > 0 {
		t.Fatalf("pinned snapshots diverged while the writer committed: %+v", qs)
	}
	if qs.Served == 0 {
		t.Fatalf("readers served nothing: %+v", qs)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	tree.Close()
}
