package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pmoctree/internal/nvbm"
)

// fakeClock returns a clock that advances by tick on every reading.
func fakeClock(tick int64) func() int64 {
	var now int64
	return func() int64 {
		now += tick
		return now
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	tr.SetClock(fakeClock(10))
	tel := tr.Tracer(0)
	tel.SetStep(3)

	outer := tel.Begin("Persist")
	inner := tel.Begin("GC")
	inner.End()
	outer.End()

	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	// Inner span ends first.
	if ev[0].Name != "GC" || ev[0].Depth != 1 {
		t.Errorf("inner = %+v, want GC at depth 1", ev[0])
	}
	if ev[1].Name != "Persist" || ev[1].Depth != 0 {
		t.Errorf("outer = %+v, want Persist at depth 0", ev[1])
	}
	if ev[0].Step != 3 || ev[1].Step != 3 {
		t.Errorf("steps = %d/%d, want 3/3", ev[0].Step, ev[1].Step)
	}
	if ev[1].StartNs >= ev[0].StartNs {
		t.Errorf("outer starts at %d, inner at %d: outer must start first", ev[1].StartNs, ev[0].StartNs)
	}
	if ev[1].DurNs <= ev[0].DurNs {
		t.Errorf("outer dur %d must exceed inner dur %d", ev[1].DurNs, ev[0].DurNs)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	var tel *Tracer
	var sp *Span
	var obs *Observer

	// None of these may panic.
	tr.Emit(Event{})
	tr.SetClock(nil)
	if tr.Len() != 0 || tr.Events() != nil || tr.Tracer(0) != nil {
		t.Fatal("nil Trace must behave as empty")
	}
	tel.SetStep(1)
	if s := tel.Begin("x"); s != nil {
		t.Fatal("nil tracer must return nil span")
	}
	sp.End()
	obs.RecordStep(StepRecord{})
	if obs.TracerFor(0) != nil || obs.Steps() != nil || obs.Mark() != 0 {
		t.Fatal("nil Observer must behave as empty")
	}
	if err := obs.WriteSteps(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanProbesDeltas(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 4096)
	dr := nvbm.New(nvbm.DRAM, 4096)
	tr := NewTrace()
	tel := tr.Tracer(0, DeviceProbe(nv), DeviceProbe(dr))

	buf := make([]byte, 64)
	sp := tel.Begin("Refine")
	nv.WriteAt(0, buf)
	nv.ReadAt(0, buf)
	dr.WriteAt(0, buf) // DRAM: modeled-only, must not count as NVBM ops
	sp.End()

	ev := tr.Events()
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1", len(ev))
	}
	e := ev[0]
	if e.Reads != 1 || e.Writes != 1 {
		t.Errorf("NVBM ops = %d reads %d writes, want 1/1", e.Reads, e.Writes)
	}
	if e.ReadBytes != 64 || e.WriteBytes != 64 {
		t.Errorf("NVBM bytes = %d/%d, want 64/64", e.ReadBytes, e.WriteBytes)
	}
	wantNs := nv.Stats().ModeledNs + dr.Stats().ModeledNs
	if e.ModeledNs != wantNs {
		t.Errorf("modeled = %d, want %d (NVBM+DRAM)", e.ModeledNs, wantNs)
	}
}

func TestStepFromEvents(t *testing.T) {
	events := []Event{
		{Name: "Refine", Depth: 0, DurNs: 100, ModeledNs: 50, Reads: 5, Writes: 2},
		{Name: "Solve", Depth: 0, DurNs: 200, ModeledNs: 80, Reads: 8},
		{Name: "Solve", Depth: 0, DurNs: 50, ModeledNs: 20, Reads: 2},
		{Name: "GC", Depth: 1, DurNs: 30, ModeledNs: 10}, // nested: excluded
	}
	rec := StepFromEvents(7, events)
	if rec.Step != 7 {
		t.Errorf("step = %d, want 7", rec.Step)
	}
	if len(rec.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (nested span must not create a phase)", len(rec.Phases))
	}
	if rec.Phases[0].Name != "Refine" || rec.Phases[1].Name != "Solve" {
		t.Errorf("phase order = %s,%s, want first-seen Refine,Solve", rec.Phases[0].Name, rec.Phases[1].Name)
	}
	if rec.Phases[1].WallNs != 250 || rec.Phases[1].ModeledNs != 100 {
		t.Errorf("Solve aggregate = %d wall %d modeled, want 250/100", rec.Phases[1].WallNs, rec.Phases[1].ModeledNs)
	}
	if rec.WallNs != 350 || rec.ModeledNs != 150 || rec.NVBMReads != 15 || rec.NVBMWrites != 2 {
		t.Errorf("totals = %+v, want wall 350 modeled 150 R15 W2", rec)
	}
}

func TestWriteStepsJSONL(t *testing.T) {
	recs := []StepRecord{
		{Step: 1, ModeledNs: 10, Phases: []PhaseStat{{Name: "Refine", ModeledNs: 10}}},
		{Step: 2, ModeledNs: 20},
	}
	var buf bytes.Buffer
	if err := WriteStepsJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for i, line := range lines {
		var rec StepRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if rec.Step != i+1 {
			t.Errorf("line %d step = %d, want %d", i, rec.Step, i+1)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTrace()
	tr.SetClock(fakeClock(1000))
	tel0 := tr.Tracer(0)
	tel1 := tr.Tracer(1)
	tel0.Begin("Refine").End()
	tel1.Begin("Solve").End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	var meta, complete int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
			if e["name"] != "thread_name" {
				t.Errorf("metadata event name = %v", e["name"])
			}
		case "X":
			complete++
			if _, ok := e["ts"].(float64); !ok {
				t.Errorf("X event missing numeric ts: %v", e)
			}
			if _, ok := e["dur"].(float64); !ok {
				t.Errorf("X event missing numeric dur: %v", e)
			}
		default:
			t.Errorf("unexpected ph %v", e["ph"])
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("events = %d metadata + %d complete, want 2+2", meta, complete)
	}
}

func TestObserverRoundTrip(t *testing.T) {
	obs := NewObserver()
	obs.Trace.SetClock(fakeClock(5))
	tel := obs.TracerFor(0)

	mark := obs.Mark()
	tel.SetStep(1)
	tel.Begin("Refine").End()
	rec := StepFromEvents(1, obs.EventsFrom(mark))
	obs.RecordStep(rec)

	steps := obs.Steps()
	if len(steps) != 1 || steps[0].Step != 1 || len(steps[0].Phases) != 1 {
		t.Fatalf("steps = %+v, want one record with one phase", steps)
	}
	var buf bytes.Buffer
	if err := obs.WriteSteps(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Refine"`) {
		t.Fatalf("JSONL missing phase: %s", buf.String())
	}
}
