package fault

import (
	"os"
	"path/filepath"
	"testing"

	"pmoctree/internal/telemetry"
)

// TestChaosFlightRecorder runs the soak with a flight recorder attached
// and checks the black box it leaves behind: every restore landed on a
// digest some commit or commit-attempt event published first, and the
// last committed-step event in the dump names exactly the version the
// run finished on. This is the post-mortem contract — after a kill, the
// dump alone identifies the recovered version.
func TestChaosFlightRecorder(t *testing.T) {
	fr := telemetry.NewFlightRecorder(4096)
	rep, err := Run(ChaosConfig{Seed: 2, Steps: 40, Recorder: fr})
	if err != nil {
		t.Fatalf("recovery guarantee violated: %v\n%s", err, rep)
	}
	if rep.Crashes == 0 || rep.Fallbacks == 0 {
		t.Fatalf("seed 2 fired no crash or no fallback; pick a seed that exercises recovery\n%s", rep)
	}

	// Round-trip through the JSONL dump: assertions run against what a
	// post-mortem reader would actually see on disk.
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := fr.DumpFile(dump); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadFlightDump(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("soak left an empty flight dump")
	}

	// Digests published by commit/commit_attempt events are the only
	// legitimate recovery targets.
	legit := map[uint64]bool{}
	var crashes, restores, scrubs, lost int
	var lastCommitted *telemetry.FlightEvent
	for i := range events {
		ev := events[i]
		switch ev.Kind {
		case "commit", "commit_attempt":
			legit[ev.Value] = true
			if ev.Kind == "commit" {
				lastCommitted = &events[i]
			}
		case "crash":
			crashes++
		case "restore":
			restores++
			if !legit[ev.Value] {
				t.Errorf("restore event (step %d) digest %016x matches no prior commit/commit_attempt", ev.Step, ev.Value)
			}
			lastCommitted = &events[i]
		case "scrub":
			scrubs++
		case "lose_newest":
			lost++
		}
	}
	if crashes == 0 {
		t.Errorf("report counts %d crashes but the dump has no crash event", rep.Crashes)
	}
	if restores != rep.Restores {
		t.Errorf("dump has %d restore events, report counts %d restores", restores, rep.Restores)
	}
	if scrubs != rep.ScrubPasses {
		t.Errorf("dump has %d scrub events, report counts %d scrub passes", scrubs, rep.ScrubPasses)
	}
	if lost != rep.NewestLost {
		t.Errorf("dump has %d lose_newest events, report counts %d", lost, rep.NewestLost)
	}
	if lastCommitted == nil {
		t.Fatal("no commit or restore event in the dump")
	}
	// The last committed-step event identifies the version the run ended
	// on — the acceptance criterion for post-kill triage.
	if lastCommitted.Step != rep.FinalStep {
		t.Errorf("last committed-step event names step %d, run finished on step %d",
			lastCommitted.Step, rep.FinalStep)
	}
}

// TestChaosRecorderInvisible pins the contract documented on
// ChaosConfig.Recorder: attaching a recorder never perturbs the run. The
// report must stay bit-identical to a recorder-free run on the same seed.
func TestChaosRecorderInvisible(t *testing.T) {
	plain, err := Run(ChaosConfig{Seed: 42, Steps: 25})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	recorded, err := Run(ChaosConfig{Seed: 42, Steps: 25, Recorder: telemetry.NewFlightRecorder(4096)})
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	if plain != recorded {
		t.Fatalf("flight recorder perturbed the soak:\nplain:    %srecorded: %s", plain, recorded)
	}
}
