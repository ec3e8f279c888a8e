// Command flow runs the projection-method incompressible flow solver on an
// adaptive octree mesh, with every step committed to NVBM through
// PM-octree, and optionally writes a VTK time series for animation — the
// full §4 pipeline as a standalone tool.
//
//	flow -scenario dambreak -steps 40 -vtkdir ./frames
//	flow -scenario drop     -steps 60 -maxlevel 5
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"pmoctree"
	"pmoctree/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flow:", err)
		os.Exit(1)
	}
}

// run is the whole command: args are the command-line arguments without
// the program name, progress goes to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flow", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "dambreak", "initial condition: dambreak | drop | jet")
		steps     = fs.Int("steps", 20, "time steps")
		maxLevel  = fs.Int("maxlevel", 4, "maximum refinement level")
		vtkdir    = fs.String("vtkdir", "", "write one VTK frame per step into this directory")
		image     = fs.String("image", "", "write the final NVBM region image to this file")
		debugAddr = fs.String("debug", "", "serve expvar/metrics/pprof on `addr` (e.g. localhost:6060)")
		workers   = fs.Int("workers", 0, "worker-pool width for advection and projection (0 = GOMAXPROCS); results are identical for any value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	liquid, err := initialLiquid(*scenario)
	if err != nil {
		return err
	}

	nv := pmoctree.NewNVBM()
	tree := pmoctree.Create(pmoctree.Config{NVBMDevice: nv, DRAMBudgetOctants: 4096})
	if *debugAddr != "" {
		reg := telemetry.NewRegistry()
		tree.RegisterMetrics(reg, "flow")
		dbg, err := telemetry.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/metrics (also /metrics, /debug/vars, /debug/pprof/)\n", dbg.Addr())
	}

	// Refine every octant whose box, grown by a one-cell margin, meets the
	// scenario's liquid. Testing the box rather than sample points is what
	// lets the root refine when the liquid sits in a corner of the domain.
	tree.RefineWhere(func(c pmoctree.Code) bool {
		x, y, z := c.Center()
		h := 1.5 * c.Extent()
		return liquid.overlaps([3]float64{x - h, y - h, z - h}, [3]float64{x + h, y + h, z + h})
	}, uint8(*maxLevel))
	tree.Balance()

	sys, err := pmoctree.BuildPoisson(tree.LeafCodes())
	if err != nil {
		return err
	}
	st := pmoctree.NewFlowState(sys)
	st.SetWorkers(*workers)
	for i := 0; i < sys.N(); i++ {
		if liquid.contains(sys.Center(i)) {
			st.VOF[i] = 1
		}
	}
	volume := st.LiquidVolume()
	fmt.Fprintf(stdout, "%s: %d cells, liquid volume %.4f\n", *scenario, sys.N(), volume)
	if volume == 0 {
		return fmt.Errorf("scenario %s has no liquid on the %d-cell level-%d mesh (no cell center lies in it); raise -maxlevel", *scenario, sys.N(), *maxLevel)
	}

	if *vtkdir != "" {
		if err := os.MkdirAll(*vtkdir, 0o755); err != nil {
			return err
		}
	}

	for s := 1; s <= *steps; s++ {
		dt := math.Min(st.CFL()*0.5, 5e-3)
		res, err := st.Step(dt)
		if err != nil {
			return err
		}
		commitFields(tree, sys, st)
		tree.Persist()
		fmt.Fprintf(stdout, "step %3d: dt=%.4f iters=%3d defect=%.1e liquid=%.4f KE=%.5f\n",
			s, dt, res.Iterations, st.FaceDivergenceDefect(), st.LiquidVolume(), st.KineticEnergy())
		if *vtkdir != "" {
			if err := writeFrame(tree, *vtkdir, s); err != nil {
				return err
			}
		}
	}

	if *image != "" {
		if err := nv.PersistFile(*image); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "persistent region written to %s\n", *image)
	}
	return nil
}

// region is a scenario's initial liquid body.
type region struct {
	// contains reports whether the point is liquid.
	contains func(x, y, z float64) bool
	// overlaps reports whether the box [lo, hi] holds any liquid.
	overlaps func(lo, hi [3]float64) bool
}

// gap2 is the squared distance from p to the interval [lo, hi].
func gap2(lo, hi, p float64) float64 {
	switch {
	case p < lo:
		return (lo - p) * (lo - p)
	case p > hi:
		return (p - hi) * (p - hi)
	}
	return 0
}

// initialLiquid returns the scenario's liquid region.
func initialLiquid(name string) (region, error) {
	switch name {
	case "dambreak":
		return region{
			contains: func(x, y, z float64) bool { return x < 0.3 && z < 0.5 },
			overlaps: func(lo, hi [3]float64) bool { return lo[0] < 0.3 && lo[2] < 0.5 },
		}, nil
	case "drop":
		const r2 = 0.15 * 0.15
		return region{
			contains: func(x, y, z float64) bool {
				dx, dy, dz := x-0.5, y-0.5, z-0.7
				return dx*dx+dy*dy+dz*dz < r2 || z < 0.15
			},
			overlaps: func(lo, hi [3]float64) bool {
				return gap2(lo[0], hi[0], 0.5)+gap2(lo[1], hi[1], 0.5)+gap2(lo[2], hi[2], 0.7) < r2 || lo[2] < 0.15
			},
		}, nil
	case "jet":
		const r2 = 0.08 * 0.08
		return region{
			contains: func(x, y, z float64) bool {
				dx, dy := x-0.5, y-0.5
				return dx*dx+dy*dy < r2 && z > 0.8
			},
			overlaps: func(lo, hi [3]float64) bool {
				return gap2(lo[0], hi[0], 0.5)+gap2(lo[1], hi[1], 0.5) < r2 && hi[2] > 0.8
			},
		}, nil
	}
	return region{}, fmt.Errorf("unknown scenario %q (want dambreak, drop or jet)", name)
}

// commitFields stores the flow fields into the persistent octree.
func commitFields(tree *pmoctree.Tree, sys *pmoctree.PoissonSystem, st *pmoctree.FlowState) {
	byCode := map[pmoctree.Code][3]float64{}
	for i, c := range sys.Codes() {
		byCode[c] = [3]float64{st.VOF[i], st.P[i], st.W[i]}
	}
	tree.UpdateLeaves(func(c pmoctree.Code, d *[pmoctree.DataWords]float64) bool {
		v := byCode[c]
		if d[0] == v[0] && d[1] == v[1] && d[3] == v[2] {
			return false
		}
		d[0], d[1], d[3] = v[0], v[1], v[2]
		return true
	})
}

// writeFrame exports one VTK time-series frame.
func writeFrame(tree *pmoctree.Tree, dir string, step int) error {
	hm := pmoctree.Extract(tree.ForEachLeaf)
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("frame_%04d.vtk", step)))
	if err != nil {
		return err
	}
	if err := hm.WriteVTK(f, fmt.Sprintf("flow step %d", step)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
