package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"pmoctree/internal/cluster"
)

// table builds an aligned text table.
func table(fn func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fn(w)
	w.Flush()
	return sb.String()
}

// Shared column formatters: every table renders ratios and modeled times
// the same way.

// pct renders a fraction as a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// pct0 renders a fraction as a whole-number percentage.
func pct0(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// secs renders modeled seconds.
func secs(v float64) string { return fmt.Sprintf("%.3f", v) }

// maybeSecs renders modeled seconds, or "-" for an absent measurement.
func maybeSecs(v float64) string {
	if v == 0 {
		return "-"
	}
	return secs(v)
}

// FormatTable2 renders the memory-characteristics table.
func FormatTable2(rows []Table2Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Table 2: DRAM and NVBM characteristics (emulation model)")
		fmt.Fprintln(w, "metric\tDRAM\tNVBM")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%s\n", r.Metric, r.DRAM, r.NVBM)
		}
	})
}

// FormatWriteMix renders the §1 write-fraction statistic.
func FormatWriteMix(res WriteMixResult) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Write share of memory accesses during meshing (§1: up to 72%, avg 41%)")
		fmt.Fprintln(w, "step\twrite fraction")
		for i, f := range res.PerStep {
			fmt.Fprintf(w, "%d\t%s\n", i+1, pct(f))
		}
		fmt.Fprintf(w, "average\t%s\n", pct(res.Avg))
		fmt.Fprintf(w, "max\t%s\n", pct(res.Max))
	})
}

// FormatFig3 renders the overlap/memory trace.
func FormatFig3(rows []Fig3Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 3: octant overlap of V(i-1)/V(i) and memory per 1000 octants")
		fmt.Fprintln(w, "step\toctants\toverlap\tbytes/1k octants\texpansion")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%s\t%.0f\t%.2fx\n",
				r.Step, r.Octants, pct(r.Overlap), r.MemPerK, r.Expansion)
		}
	})
}

// FormatFig5 renders the layout-comparison result.
func FormatFig5(res Fig5Result) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 5: NVBM writes under locality-oblivious vs locality-aware layout")
		fmt.Fprintln(w, "layout\tNVBM writes")
		fmt.Fprintf(w, "oblivious (Fig 5a)\t%d\n", res.ObliviousWrites)
		fmt.Fprintf(w, "aware (Fig 5b)\t%d\n", res.AwareWrites)
		fmt.Fprintf(w, "extra writes from oblivious layout\t%s (paper: ~89%%)\n", pct0(res.ExtraFraction))
	})
}

// FormatScaling renders a weak/strong scaling table across implementations.
func FormatScaling(title string, points []ScalePoint) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, title)
		fmt.Fprintln(w, "ranks\telements\tin-core (s)\tpm-octree (s)\tout-of-core (s)")
		for _, p := range points {
			ic, pm, oc := p.Seconds[cluster.InCore], p.Seconds[cluster.PMOctree], p.Seconds[cluster.OutOfCore]
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\n",
				p.Ranks, p.Elements, maybeSecs(ic), secs(pm), maybeSecs(oc))
		}
	})
}

// FormatBreakdown renders per-routine fractions (Figures 7, 8b).
func FormatBreakdown(title string, points []ScalePoint) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, title)
		fmt.Fprintln(w, "ranks\telements\trefine\tcoarsen\tbalance\tsolve\tpartition\tpersist")
		for _, p := range points {
			f := p.Breakdown.Fractions()
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
				p.Ranks, p.Elements, pct(f[0]), pct(f[1]), pct(f[2]), pct(f[3]), pct(f[4]), pct(f[5]))
		}
	})
}

// FormatStrong renders the PM-octree strong-scaling run with ideal
// speedup (Figure 8a).
func FormatStrong(points []ScalePoint) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 8(a): strong scaling of PM-octree (fixed problem size)")
		fmt.Fprintln(w, "ranks\telements\ttime (s)\tspeedup\tideal")
		if len(points) == 0 {
			return
		}
		base := points[0]
		baseT := base.Seconds[cluster.PMOctree]
		for _, p := range points {
			t := p.Seconds[cluster.PMOctree]
			speedup := 0.0
			if t > 0 {
				speedup = baseT / t
			}
			ideal := float64(p.Ranks) / float64(base.Ranks)
			fmt.Fprintf(w, "%d\t%d\t%s\t%.2fx\t%.2fx\n", p.Ranks, p.Elements, secs(t), speedup, ideal)
		}
	})
}

// FormatFig10 renders the DRAM-size sweep.
func FormatFig10(rows []Fig10Row, inCoreSecs, outOfCoreSecs float64) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 10: impact of the DRAM size configured for the C0 tree")
		fmt.Fprintln(w, "C0 budget (octants)\ttime (ms)\tC0/C1 merges\telements")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.3f\t%d\t%d\n", r.BudgetOctants, r.Seconds*1e3, r.Merges, r.Elements)
		}
		fmt.Fprintf(w, "in-core reference\t%.3f\t-\t-\n", inCoreSecs*1e3)
		fmt.Fprintf(w, "out-of-core reference\t%.3f\t-\t-\n", outOfCoreSecs*1e3)
	})
}

// FormatFig11 renders the dynamic-transformation sweep.
func FormatFig11(rows []Fig11Row) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Figure 11: execution time without/with dynamic transformation")
		fmt.Fprintln(w, "max level\telements\toff (s)\ton (s)\ttime cut\tNVBM writes off\ton\twrite cut")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\t%d\t%d\t%s\n",
				r.MaxLevel, r.Elements, secs(r.SecondsOff), secs(r.SecondsOn), pct(r.TimeReduction),
				r.WritesOff, r.WritesOn, pct(r.WriteReduction))
		}
	})
}

// FormatRecovery renders the §5.6 restart comparison.
func FormatRecovery(rows []RecoveryRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "§5.6: time to restart the simulation after a failure")
		fmt.Fprintln(w, "implementation\tscenario\trecovered\trestart (ms)\treplica move (ms)\tsteps lost")
		for _, r := range rows {
			scen := "same node"
			if !r.SameNode {
				scen = "new node"
			}
			if !r.Report.Recovered {
				fmt.Fprintf(w, "%s\t%s\tNO\t-\t-\t-\n", r.Impl, scen)
				continue
			}
			fmt.Fprintf(w, "%s\t%s\tyes\t%.4f\t%.4f\t%d\n",
				r.Impl, scen, r.Report.RestartNs/1e6, r.Report.ReplicaMoveNs/1e6, r.Report.StepsLost)
		}
	})
}
