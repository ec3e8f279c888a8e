package experiments

import (
	"fmt"
	"strings"
	"time"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

// PipelineRow is one persistence mode in the pipeline experiment: the
// droplet workload stepped to the same committed-version count, with
// commit durability either on the mutator's critical path (sync) or
// riding the background persist worker at a given window depth and
// group-commit width.
type PipelineRow struct {
	Mode      string  `json:"mode"`
	Depth     int     `json:"depth"`
	Group     int     `json:"group"`
	Steps     int     `json:"steps"`
	MutatorMS float64 `json:"mutatorMS"` // mutator wall time for the whole run (steps + persists + final flush)
	PersistMS float64 `json:"persistMS"` // mutator wall time spent inside Persist calls
	Stalls    uint64  `json:"stalls"`    // mutator stalls on a full pipeline window
	Coalesced uint64  `json:"coalesced"` // versions that shared a durable group commit
	Commits   uint64  `json:"commits"`   // durable commit-record flips
	Leaves    int     `json:"leaves"`    // final mesh size (identical across modes)
}

// Pipeline measures what the asynchronous persistence pipeline buys: the
// same droplet run, same committed-version count, with modeled NVBM
// latency injected as real delay so writeback cost is wall-clock visible.
// Sync pays every writeback inside Persist; async overlaps it with the
// next step's meshing; group commit additionally amortizes ring pushes
// and record flips across adjacent versions.
func Pipeline(sc Scale, obs *telemetry.Observer) []PipelineRow {
	modes := []struct {
		name         string
		depth, group int
	}{
		{"sync", 0, 0},
		{"async k=1", 3, 1},
		{"async k=2", 3, 2},
		{"async k=4", 3, 4},
	}
	steps := sc.PipelineSteps
	if steps <= 0 {
		steps = 12
	}
	rows := make([]PipelineRow, 0, len(modes))
	for mi, m := range modes {
		dev := nvbm.New(nvbm.NVBM, 0)
		dev.SetDelayInjection(true)
		tree := core.Create(core.Config{
			NVBMDevice:        dev,
			DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
			DRAMBudgetOctants: 2048,
			PipelineDepth:     m.depth,
			GroupCommit:       m.group,
		})
		tree.SetTracer(obs.TracerFor(mi, telemetry.DeviceProbe(dev)))
		d := sim.NewDroplet(sim.DropletConfig{Steps: steps + 10})
		tree.SetFeatures(d.Feature(1))
		var persistMS float64
		start := time.Now()
		for s := 1; s <= steps; s++ {
			sim.Step(tree, d, s, sc.PipelineMaxLevel)
			tree.SetFeatures(d.Feature(s + 1))
			ps := time.Now()
			tree.Persist()
			persistMS += time.Since(ps).Seconds() * 1e3
		}
		tree.Flush()
		total := time.Since(start).Seconds() * 1e3
		st := tree.PipelineStats()
		rows = append(rows, PipelineRow{
			Mode: m.name, Depth: m.depth, Group: m.group, Steps: steps,
			MutatorMS: total, PersistMS: persistMS,
			Stalls: st.Stalls, Coalesced: st.Coalesced, Commits: st.Committed,
			Leaves: tree.LeafCount(),
		})
		tree.Close()
	}
	return rows
}

// FormatPipeline renders the experiment as a table.
func FormatPipeline(rows []PipelineRow) string {
	var b strings.Builder
	b.WriteString("Pipelined persistence: droplet ejection, injected NVBM latency\n")
	b.WriteString("mode        depth  group  total ms  persist ms  commits  coalesced  stalls  leaves\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %5d  %5d  %8.1f  %10.1f  %7d  %9d  %6d  %6d\n",
			r.Mode, r.Depth, r.Group, r.MutatorMS, r.PersistMS, r.Commits, r.Coalesced, r.Stalls, r.Leaves)
	}
	if len(rows) > 1 && rows[0].Depth == 0 {
		base := rows[0].MutatorMS
		for _, r := range rows[1:] {
			if r.MutatorMS > 0 {
				fmt.Fprintf(&b, "%s: %.2fx mutator speedup over sync\n", r.Mode, base/r.MutatorMS)
			}
		}
	}
	return b.String()
}
