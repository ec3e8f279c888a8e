// Transform: demonstrate dynamic layout transformation (§3.3). A
// simulation hammers one corner of the domain; with feature-directed
// sampling enabled, PM-octree migrates those subtrees into DRAM and the
// NVBM write count drops — the effect behind Figures 5 and 11.
package main

import (
	"fmt"

	"pmoctree"
)

func main() {
	// The hot region: the (+x, +z) quadrant — deliberately LAST in
	// Z-order, so an access-oblivious layout never keeps it in DRAM.
	hot := func(c pmoctree.Code) bool {
		x, _, z := c.Center()
		return x > 0.5 && z > 0.5
	}

	for _, disable := range []bool{true, false} {
		nv := pmoctree.NewNVBM()
		tree := pmoctree.Create(pmoctree.Config{
			NVBMDevice:        nv,
			DRAMBudgetOctants: 100, // holds roughly one of the two hot subtrees
			DisableTransform:  disable,
		})
		// The feature function is application knowledge: "these are the
		// octants my next step will touch". PM-octree pre-executes it on
		// sampled octants to rank subtrees.
		tree.SetFeatures(hot)

		// A uniform base mesh, committed.
		tree.RefineWhere(func(pmoctree.Code) bool { return true }, 3)
		tree.Persist()

		// Solver-style write bursts concentrated in the hot corner.
		before := nv.Stats()
		for round := 0; round < 4; round++ {
			tree.UpdateLeaves(func(c pmoctree.Code, data *[pmoctree.DataWords]float64) bool {
				if hot(c) {
					data[0]++
					return true
				}
				return false
			})
		}
		writes := nv.Stats().Sub(before).Writes

		name := "dynamic transformation"
		if disable {
			name = "locality-oblivious layout"
		}
		fmt.Printf("%-28s NVBM writes: %5d   hot subtrees in DRAM: %d\n",
			name, writes, len(tree.HotSubtrees()))
	}
	fmt.Println("\nthe transformed layout serves the hot region from DRAM,")
	fmt.Println("cutting NVBM writes and extending device lifetime (§3.3)")
}
