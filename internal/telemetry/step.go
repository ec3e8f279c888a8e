package telemetry

import (
	"encoding/json"
	"io"
)

// PhaseStat aggregates all top-level spans of one phase name within a
// step.
type PhaseStat struct {
	Name       string `json:"name"`
	WallNs     int64  `json:"wall_ns"`
	ModeledNs  uint64 `json:"modeled_ns"`
	NVBMReads  uint64 `json:"nvbm_reads"`
	NVBMWrites uint64 `json:"nvbm_writes"`
}

// StepRecord is the machine-readable timeline of one simulation step —
// the unit of the JSONL exporter. Phases is ordered by first occurrence
// within the step, so repeated runs of a deterministic simulation produce
// byte-identical lines.
type StepRecord struct {
	Step       int         `json:"step"`
	Elements   int         `json:"elements,omitempty"`
	Octants    int         `json:"octants,omitempty"`
	WallNs     int64       `json:"wall_ns"`
	ModeledNs  uint64      `json:"modeled_ns"`
	NVBMReads  uint64      `json:"nvbm_reads"`
	NVBMWrites uint64      `json:"nvbm_writes"`
	Overlap    float64     `json:"overlap"`
	Expansion  float64     `json:"expansion,omitempty"`
	Merges     uint64      `json:"merges"`
	GCFreed    uint64      `json:"gc_freed,omitempty"`
	Copies     uint64      `json:"copies,omitempty"`
	Phases     []PhaseStat `json:"phases"`
}

// StepFromEvents folds one step's span events into a StepRecord. Only
// minimum-depth events are aggregated into phases (nested spans would
// double-count their parents); step-level totals sum those same events.
func StepFromEvents(step int, events []Event) StepRecord {
	rec := StepRecord{Step: step}
	if len(events) == 0 {
		return rec
	}
	minDepth := events[0].Depth
	for _, e := range events {
		if e.Depth < minDepth {
			minDepth = e.Depth
		}
	}
	idx := map[string]int{}
	for _, e := range events {
		if e.Depth != minDepth {
			continue
		}
		i, ok := idx[e.Name]
		if !ok {
			i = len(rec.Phases)
			idx[e.Name] = i
			rec.Phases = append(rec.Phases, PhaseStat{Name: e.Name})
		}
		p := &rec.Phases[i]
		p.WallNs += e.DurNs
		p.ModeledNs += e.ModeledNs
		p.NVBMReads += e.Reads
		p.NVBMWrites += e.Writes
		rec.WallNs += e.DurNs
		rec.ModeledNs += e.ModeledNs
		rec.NVBMReads += e.Reads
		rec.NVBMWrites += e.Writes
	}
	return rec
}

// WriteStepsJSONL writes one JSON object per line, one line per step.
func WriteStepsJSONL(w io.Writer, recs []StepRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
