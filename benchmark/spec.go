package main

import "fmt"

// kind selects what one step of a workload does.
type kind int

const (
	kindAMR    kind = iota // sim step on the moving droplet interface
	kindFlow               // fluid.State.Step on a static mesh, fields committed through the tile scatter
	kindIngest             // ConstructFromCodes of the next precomputed leaf set
	kindLive               // kindAMR with a client querying every published version beside the writer
)

// spec is one row of the workload table: the lifecycle is the same code for
// all four, these numbers are what differs. Sizes are constants so that two
// commits run the same work; BENCHMARK.json and the README repeat them.
type spec struct {
	name string
	kind kind

	maxLevel uint8
	c0       int // core.Config.DRAMBudgetOctants
	pipeline int // core.Config.PipelineDepth (0 = synchronous persist)
	group    int // core.Config.GroupCommit
	workers  int // worker-pool width, capped at nproc
	keep     int // serve.Catalog keep window

	passes   int // passes at the full time budget
	leadIn   int // discarded steps per pass
	measured int // timed steps per pass

	dropletSteps int   // nominal length of the droplet model
	startStep    int   // droplet step of the initial mesh
	setSteps     []int // kindIngest: droplet steps of the precomputed leaf sets

	cycles  int // recover cycles per pass
	leadInQ int // discarded queries per pass
	queries int // distinct timed queries
	rounds  int // times a pass replays the timed queries: every replay is one more copy of each query item
	block   int // queries between client barriers; divides leadInQ and queries
	// Smallest and largest box edge in finest cells: a region answer lists
	// every hit leaf, so its box stays small against the mesh; an aggregate
	// answers with one record and takes the large boxes.
	regionCells, aggCells [2]float64
	clients               int // closed-loop clients, capped at nproc
	routed                bool

	setupReps     int // full set-ups per pass, all on fresh state; the last is kept
	ladderQueries int // queries replayed at each rung of the query ladder
}

// quiesced reports whether the count metrics are taken over the lead-in
// steps, with the persist pipeline flushed after each and no reader running:
// on these workloads the measured steps overlap a persist worker or a client,
// whose device charges land at timing-dependent moments.
func (s spec) quiesced() bool { return s.kind == kindFlow || s.kind == kindLive }

func (s spec) stepsPerPass() int { return s.leadIn + s.measured }

// requests is the number of requests the query phase of one pass sends.
func (s spec) requests() int { return s.leadInQ + s.rounds*s.queries }

// queryOf maps the j-th request of a pass to the query it asks.
func (s spec) queryOf(j int) int {
	if j < s.leadInQ {
		return j
	}
	return s.leadInQ + (j-s.leadInQ)%s.queries
}

var workloadNames = []string{"amr_ejection", "flow_projection", "bulk_routed", "query_live"}

func specFor(name, scale string) (spec, error) {
	var s spec
	switch name {
	case "amr_ejection":
		s = spec{kind: kindAMR, maxLevel: 7, c0: 2048, workers: 1, keep: 2,
			passes: 5, leadIn: 8, measured: 24, dropletSteps: 64, startStep: 22,
			cycles: 40, leadInQ: 2000, queries: 2500, rounds: 4, block: 250, clients: 2, setupReps: 16}
	case "flow_projection":
		s = spec{kind: kindFlow, maxLevel: 6, c0: 4096, pipeline: 2, group: 2, workers: 2, keep: 2,
			passes: 4, leadIn: 3, measured: 12,
			cycles: 20, leadInQ: 2000, queries: 2500, rounds: 5, block: 250, clients: 2, setupReps: 4,
			// The pool is refined uniformly: a box of 16 cells would hold 4 096 leaves.
			regionCells: [2]float64{2, 8}}
	case "bulk_routed":
		s = spec{kind: kindIngest, maxLevel: 9, c0: 2048, workers: 2, keep: 2,
			// Every ingest takes a fresh arena run (pmem.AllocRun never reuses
			// freed slots) and an arena holds 2^21 slots: one tree has room
			// for ten versions of ~2e5 octants, and a pass makes nine.
			passes: 4, leadIn: 1, measured: 6, dropletSteps: 64, startStep: 20,
			setSteps: []int{20, 26, 32, 38, 44, 50},
			cycles:   20, leadInQ: 2000, queries: 2500, rounds: 5, block: 250, clients: 2, setupReps: 2, routed: true,
			// A routed region crosses two JSON hops with every hit leaf on board.
			regionCells: [2]float64{2, 8}}
	case "query_live":
		s = spec{kind: kindLive, maxLevel: 6, c0: 8192, workers: 2, keep: 2,
			passes: 8, leadIn: 8, measured: 40, dropletSteps: 80, startStep: 20,
			cycles: 40, queries: 12000, block: 300, clients: 1, setupReps: 32}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	s.name = name
	if s.regionCells == [2]float64{} {
		s.regionCells = [2]float64{4, 16}
	}
	s.aggCells = [2]float64{4, 64}
	if s.rounds == 0 {
		s.rounds = 1
	}
	s.ladderQueries = 5000
	switch scale {
	case "full":
	case "tiny":
		// The self-test's size: every phase and every metric, in about a second.
		s.maxLevel -= 3
		if s.kind == kindIngest {
			s.maxLevel = 5
		}
		s.c0 = 256
		s.passes, s.leadIn, s.measured = 2, 2, 3
		s.cycles, s.leadInQ, s.queries, s.rounds, s.block = recoverAsks, 50, 100, 2, 50
		if s.kind == kindLive {
			s.measured, s.leadInQ, s.queries, s.rounds, s.block = 4, 0, 200, 1, 50
		}
		s.setupReps, s.ladderQueries = 2, 100
	default:
		return spec{}, fmt.Errorf("unknown scale %q (full or tiny)", scale)
	}
	return s, nil
}
