package serve

import (
	"strconv"
	"testing"

	"pmoctree/internal/core"
)

// benchSnapshot builds a served droplet tree once per benchmark.
func benchSnapshot(b *testing.B) (*Catalog, *Snapshot) {
	b.Helper()
	tree, _ := buildTree(b, 5)
	cat, s := publish(b, tree, Config{})
	s.LeafCount() // build the index, if the version arrived without one, untimed
	return cat, s
}

func BenchmarkServePointLookup(b *testing.B) {
	cat, s := benchSnapshot(b)
	defer cat.Close()
	defer s.Close()
	pts := [][3]float64{
		{0.12, 0.55, 0.81}, {0.5, 0.5, 0.5}, {0.91, 0.07, 0.33}, {0.26, 0.74, 0.48},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		if _, err := s.Point(p[0], p[1], p[2]); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepLevel is the finest level of the box sweep's droplet mesh, the
// level of the amr_ejection workload's mesh.
const sweepLevel = 7

// sweepBoxes are the box sweep's boxes: cubes with edges of 1, 4, 16 and
// 64 finest cells anchored at the first finest-level leaf (the droplet
// interface, where an analysis client looks), and a 4-cell box straddling
// the x = 0.5 mid-plane, whose cover octant is the root.
func sweepBoxes(s *Snapshot) (names []string, boxes []Box) {
	const cell = 1.0 / (1 << sweepLevel)
	var at [3]float64
	for _, c := range s.v.leaves.Codes() {
		if c.Level() == sweepLevel {
			at = cube(c).Min
			break
		}
	}
	for _, edge := range []int{1, 4, 16, 64} {
		var box Box
		for d := 0; d < 3; d++ {
			box.Min[d] = min(at[d], 1-float64(edge)*cell)
			box.Max[d] = box.Min[d] + float64(edge)*cell
		}
		names, boxes = append(names, "cells="+strconv.Itoa(edge)), append(boxes, box)
	}
	straddle := boxes[1]
	straddle.Min[0], straddle.Max[0] = 0.5-2*cell, 0.5+2*cell
	return append(names, "straddle-x"), append(boxes, straddle)
}

// benchBoxSweep times one query class over sweepBoxes and reports the
// octant reads the scan charges per hit leaf ("visited/hit"): the interior
// octants the box walk descends through plus the leaves it returns.
func benchBoxSweep(b *testing.B, class Class) {
	tree, _ := buildTreeAt(b, 3, sweepLevel)
	cat, s := publish(b, tree, Config{})
	defer cat.Close()
	defer s.Close()
	s.LeafCount()
	names, boxes := sweepBoxes(s)
	for i, box := range boxes {
		b.Run(names[i], func(b *testing.B) {
			q := Query{Class: class, Box: box, Span: FullKeyRange()}
			var res Result
			reads, err := s.v.scan(q, 0, &res)
			if err != nil {
				b.Fatal(err)
			}
			hits := len(res.Hits) + res.Agg.Count
			if hits == 0 {
				b.Fatalf("box %+v hit no leaves", box)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(nil, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(reads)/float64(hits), "visited/hit")
		})
	}
}

func BenchmarkServeRegionQuery(b *testing.B) { benchBoxSweep(b, ClassRegion) }

func BenchmarkServeAggQuery(b *testing.B) { benchBoxSweep(b, ClassAgg) }

// BenchmarkServeRecoverFirstAnswer times a restart up to its first answer
// on a level-7 droplet image: RestoreWithReport, Publish, one query. The
// restored version arrives without a leaf index, so point-first answers by
// descending the pinned tree, and region-first still pays the index build.
func BenchmarkServeRecoverFirstAnswer(b *testing.B) {
	// A level-7 droplet image (the amr_ejection mesh level). Restoring an
	// undamaged image writes nothing to it, so every restart sees the same
	// bytes.
	tree, _ := buildTreeAt(b, 3, sweepLevel)
	tree.Close()
	img := tree.NVBMDevice()
	for _, c := range []struct {
		name string
		q    Query
	}{
		{"point-first", Query{Class: ClassPoint, Point: [3]float64{0.5, 0.5, 0.55}}},
		{"region-first", Query{Class: ClassRegion, Box: Box{Min: [3]float64{0.48, 0.48, 0.53}, Max: [3]float64{0.52, 0.52, 0.57}}, Span: FullKeyRange()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, _, err := core.RestoreWithReport(core.Config{NVBMDevice: img})
				if err != nil {
					b.Fatal(err)
				}
				cat := NewCatalog(rt, Config{})
				s, err := cat.Publish()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Query(nil, c.q); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Close()
				cat.Close()
				rt.Close()
				b.StartTimer()
			}
		})
	}
}
