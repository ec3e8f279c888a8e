package fault

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"pmoctree/internal/sim"
)

// TestChaosSoak is the acceptance gate for the self-healing persistence
// stack: over several seeds, the droplet workload runs under torn power
// cuts, bit-rot, wear-out, and lossy replica shipping, and every crash
// must recover to a validated, previously committed version. CI runs it
// with `go test -run Chaos -count=1`.
func TestChaosSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	var crashes, fallbacks, corrupt, validateFailures, remapped int
	for _, seed := range seeds {
		rep, err := Run(ChaosConfig{Seed: seed, Steps: 40})
		if err != nil {
			t.Fatalf("seed %d: recovery guarantee violated: %v\n%s", seed, err, rep)
		}
		t.Logf("seed %d:\n%s", seed, rep)
		// Every recovery attempt (crash or failed validation) succeeded.
		if got, want := rep.Restores, rep.Crashes+rep.ValidateFailures; got != want {
			t.Errorf("seed %d: restores=%d, want crashes+validate_failures=%d", seed, got, want)
		}
		// Scrub healed every corrupt line it found; nothing was beyond
		// repair while a commit-fresh replica was available.
		if rep.ScrubRepaired != rep.ScrubCorrupt {
			t.Errorf("seed %d: scrub repaired %d of %d corrupt lines", seed, rep.ScrubRepaired, rep.ScrubCorrupt)
		}
		if rep.ScrubUnrepairable != 0 {
			t.Errorf("seed %d: %d unrepairable lines", seed, rep.ScrubUnrepairable)
		}
		if rep.Committed == 0 {
			t.Errorf("seed %d: no step ever committed", seed)
		}
		crashes += rep.Crashes
		fallbacks += rep.Fallbacks
		corrupt += rep.ScrubCorrupt
		validateFailures += rep.ValidateFailures
		remapped += rep.ScrubRemapped
	}
	// The soak is only meaningful if the fault paths actually fired.
	if crashes == 0 {
		t.Error("no torn power cut fired across any seed; harness is not exercising crashes")
	}
	if fallbacks == 0 {
		t.Error("no restore ever fell back past the newest version; fallback chain untested")
	}
	if corrupt == 0 {
		t.Error("scrub never found an injected media error")
	}
	if validateFailures == 0 {
		t.Error("no mid-run check ever failed; lost-store detection (pmem.ErrStoreLost) is untested")
	}
	if remapped == 0 {
		t.Error("scrub never remapped a worn-out line; wear-out is untested")
	}
}

// TestChaosHarsh turns the fault intensities up (every step rots a burst
// of bits, the link drops 40% of frames) and still requires every crash
// to land on a committed version — degraded replicas and sync failures
// are allowed, silent corruption is not.
func TestChaosHarsh(t *testing.T) {
	p := DefaultProfile()
	p.CutProb = 0.4
	p.RotProb = 1.0
	p.RotBurst = 48
	p.DropProb = 0.4
	p.CorruptProb = 0.2
	for _, seed := range []int64{11, 12, 13} {
		rep, err := Run(ChaosConfig{Seed: seed, Steps: 30, Profile: p})
		if err != nil {
			t.Fatalf("seed %d: recovery guarantee violated: %v\n%s", seed, err, rep)
		}
		t.Logf("seed %d:\n%s", seed, rep)
		if rep.ScrubUnrepairable != 0 {
			t.Errorf("seed %d: %d unrepairable lines despite replica repair source", seed, rep.ScrubUnrepairable)
		}
	}
}

// TestChaosQueryReaders runs the soak with concurrent MVCC snapshot
// readers (internal/serve) hammering pinned committed versions while the
// writer crashes and recovers. The digest-history recovery assertion must
// still hold, every double pass over a pinned snapshot must be
// bit-identical, and a useful number of queries must actually have been
// served through the chaos. Reports are not compared across runs here:
// reader timing legitimately perturbs pin lifetimes and hence arena
// layout (TestChaosReproducible covers the readers-off contract).
func TestChaosQueryReaders(t *testing.T) {
	seeds := []int64{3, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		var qs QueryStats
		rep, err := Run(ChaosConfig{Seed: seed, Steps: 40, QueryReaders: 3, QueryStats: &qs})
		if err != nil {
			t.Fatalf("seed %d: recovery guarantee violated under query load: %v\n%s", seed, err, rep)
		}
		t.Logf("seed %d:\n%s  queries: %+v", seed, rep, qs)
		if got, want := rep.Restores, rep.Crashes+rep.ValidateFailures; got != want {
			t.Errorf("seed %d: restores=%d, want crashes+validate_failures=%d", seed, got, want)
		}
		if rep.Committed == 0 {
			t.Errorf("seed %d: no step ever committed", seed)
		}
		if qs.Mismatches != 0 {
			t.Errorf("seed %d: %d snapshot double-pass mismatches", seed, qs.Mismatches)
		}
		if qs.Served == 0 {
			t.Errorf("seed %d: readers never served a query", seed)
		}
		if qs.Generations == 0 && rep.Crashes+rep.ValidateFailures > 0 {
			t.Errorf("seed %d: writer recovered %d times but the catalog never rebound",
				seed, rep.Crashes+rep.ValidateFailures)
		}
	}
}

// TestChaosReproducible pins the bit-reproducibility contract: two runs
// with the same config produce identical reports, digest included.
func TestChaosReproducible(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, Steps: 25}
	a, errA := Run(cfg)
	b, errB := Run(cfg)
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v / %v", errA, errB)
	}
	if a != b {
		t.Fatalf("same seed produced different reports:\n--- first\n%s--- second\n%s", a, b)
	}
	if a.Digest == 0 {
		t.Error("history digest is zero; commit history was never hashed")
	}
}

// TestChaosRuntimeErrorFails plants an index out of range in step 3: a
// runtime error is a fault of the program, not of the memory, so the soak
// must fail naming it rather than count a crash and restore.
func TestChaosRuntimeErrorFails(t *testing.T) {
	defer func(orig func(sim.Mesh, *sim.Droplet, int, uint8) sim.StepCounts) { step = orig }(step)
	step = func(m sim.Mesh, d *sim.Droplet, s int, maxLevel uint8) sim.StepCounts {
		if s == 3 {
			var planted []int
			planted[s]++
		}
		return sim.Step(m, d, s, maxLevel)
	}
	rep, err := Run(ChaosConfig{Seed: 1, Steps: 6})
	var re runtime.Error
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "step 3") || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("Run = %v, want step 3's index out of range as a runtime.Error\n%s", err, rep)
	}
	if rep.Restores != 0 {
		t.Errorf("restored %d times around a program fault", rep.Restores)
	}
}
