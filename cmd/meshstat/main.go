// Command meshstat inspects a persisted PM-octree region image (written
// by cmd/droplet -image or Device.PersistFile): it restores the committed
// version and reports the mesh structure, level histogram, and memory
// layout — demonstrating that a PM-octree is fully usable directly from
// its persistent image. -json emits the same report as one machine-
// readable object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"pmoctree"
	"pmoctree/internal/tile"
)

// report is the -json form of meshstat's output.
type report struct {
	Step            uint64         `json:"step"`
	Valid           bool           `json:"valid"`
	Elements        int            `json:"elements"`
	Vertices        int            `json:"vertices"`
	Anchored        int            `json:"anchored"`
	Dangling        int            `json:"dangling"`
	Volume          float64        `json:"volume"`
	LevelElements   map[string]int `json:"level_elements"`
	Octants         int            `json:"octants"`
	LiveBytes       int            `json:"live_bytes"`
	BytesPerKOctant float64        `json:"bytes_per_1000_octants"`

	// -tiles only: the tiling of the Morton-ordered SoA leaf index.
	Tiles         int            `json:"tiles,omitempty"`
	TileSize      int            `json:"tile_size,omitempty"`
	TileOccupancy float64        `json:"tile_occupancy,omitempty"`
	TileHistogram map[string]int `json:"tile_histogram,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is meshstat on args, writing the report to stdout and diagnostics to
// stderr; it returns the process exit code: 0, 1 on a failed restore or
// validation, 2 on bad usage.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("meshstat", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit one machine-readable JSON object instead of text")
	tiles := fs.Bool("tiles", false, "report the leaf index's tile count and occupancy histogram")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: meshstat [-json] [-tiles] <region-image>")
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	dev, err := pmoctree.OpenDeviceFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshstat: %v\n", err)
		return 1
	}
	tree, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: dev})
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshstat: %v\n", err)
		return 1
	}

	rep := report{Step: tree.Step() - 1, Valid: true}
	if err := tree.Validate(); err != nil {
		if *asJSON {
			rep.Valid = false
			json.NewEncoder(stdout).Encode(rep)
		}
		fmt.Fprintf(os.Stderr, "meshstat: structural validation FAILED: %v\n", err)
		return 1
	}

	hm := pmoctree.Extract(tree.ForEachLeaf)
	hist := hm.LevelHistogram()
	vs := tree.VersionStats()
	rep.Elements = len(hm.Elements)
	rep.Vertices = len(hm.Vertices)
	rep.Anchored = hm.AnchoredCount()
	rep.Dangling = hm.DanglingCount()
	rep.Volume = hm.Volume()
	rep.LevelElements = map[string]int{}
	for l, n := range hist {
		rep.LevelElements[fmt.Sprint(l)] = n
	}
	rep.Octants = vs.CurOctants
	rep.LiveBytes = vs.LiveBytes
	rep.BytesPerKOctant = vs.MemoryPerThousandOctants()

	if *tiles {
		st := tree.LeafTiles()
		rep.Tiles = st.Tiles()
		rep.TileSize = tile.Size
		rep.TileOccupancy = st.Occupancy()
		rep.TileHistogram = map[string]int{}
		for k, n := range st.OccupancyHistogram() {
			if n > 0 {
				rep.TileHistogram[fmt.Sprint(k)] = n
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "meshstat: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "restored committed version of step %d\n", rep.Step)
	fmt.Fprintln(stdout, "structural validation: ok")
	fmt.Fprintf(stdout, "mesh: %d elements, %d vertices (%d anchored, %d dangling), volume %.6f\n",
		rep.Elements, rep.Vertices, rep.Anchored, rep.Dangling, rep.Volume)

	var levels []int
	for l := range hist {
		levels = append(levels, int(l))
	}
	sort.Ints(levels)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "level\telements\tcell size")
	for _, l := range levels {
		fmt.Fprintf(w, "%d\t%d\t%.6f\n", l, hist[uint8(l)], 1/float64(uint64(1)<<l))
	}
	w.Flush()

	fmt.Fprintf(stdout, "octants: %d; live bytes %d (%.0f per 1000 octants)\n",
		rep.Octants, rep.LiveBytes, rep.BytesPerKOctant)

	if *tiles {
		fmt.Fprintf(stdout, "tiles: %d of %d cells (%.1f%% occupancy)\n",
			rep.Tiles, rep.TileSize, 100*rep.TileOccupancy)
		var occs []int
		for k := range rep.TileHistogram {
			var v int
			fmt.Sscan(k, &v)
			occs = append(occs, v)
		}
		sort.Ints(occs)
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "cells/tile\ttiles")
		for _, k := range occs {
			fmt.Fprintf(tw, "%d\t%d\n", k, rep.TileHistogram[fmt.Sprint(k)])
		}
		tw.Flush()
	}
	return 0
}
