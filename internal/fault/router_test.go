package fault

import (
	"testing"

	"pmoctree/internal/telemetry"
)

// TestRouterChaosZeroWrongAnswers: the full soak — shard servers over
// materialized span arenas killed and restarted (some mid-scatter) with
// at least one down whenever queries run — must produce zero wrong
// answers, keep availability at or above 99%, and actually exercise both
// failover steps it exists to test: the recovery replica and the stale
// retarget.
func TestRouterChaosZeroWrongAnswers(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(512)
	rep, err := RunRouterChaos(RouterChaosConfig{
		Seed:     7,
		Rounds:   16,
		Registry: reg,
		Recorder: fr,
	})
	t.Logf("\n%s", rep)
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if rep.WrongAnswers != 0 {
		t.Fatalf("wrong answers: %d", rep.WrongAnswers)
	}
	if rep.Queries == 0 || rep.Availability < 0.99 {
		t.Fatalf("availability %.4f over %d queries, want >= 0.99", rep.Availability, rep.Queries)
	}
	if rep.Kills+rep.FuseKills == 0 || rep.Restarts == 0 {
		t.Fatalf("chaos schedule inert: kills=%d fuse=%d restarts=%d", rep.Kills, rep.FuseKills, rep.Restarts)
	}
	if rep.ReplicaFallbacks == 0 || rep.StaleFallbacks == 0 {
		t.Fatalf("failover chain not exercised: replica=%d stale=%d", rep.ReplicaFallbacks, rep.StaleFallbacks)
	}
	if rep.ReplicaRefreshes == 0 {
		t.Fatal("no replica images were restored")
	}

	// The black box saw the chaos: kill/restart events must be present.
	var kills, restarts int
	for _, ev := range fr.Events() {
		switch ev.Kind {
		case "shard_kill", "shard_fuse":
			kills++
		case "shard_restart":
			restarts++
		}
	}
	if kills == 0 || restarts == 0 {
		t.Fatalf("flight recorder missed the schedule: kills=%d restarts=%d", kills, restarts)
	}
}

// TestRouterChaosDeterministicDigest: the commit history + chaos
// schedule digest is a pure function of the seed, even though query-side
// tallies may vary with scatter timing.
func TestRouterChaosDeterministicDigest(t *testing.T) {
	run := func() RouterChaosReport {
		rep, err := RunRouterChaos(RouterChaosConfig{Seed: 11, Rounds: 8})
		if err != nil {
			t.Fatalf("soak failed: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("same-seed digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.Kills != b.Kills || a.FuseKills != b.FuseKills || a.Restarts != b.Restarts {
		t.Fatalf("same-seed schedules differ: %+v vs %+v", a, b)
	}
	if a.FinalStep != b.FinalStep {
		t.Fatalf("same-seed final steps differ: %d vs %d", a.FinalStep, b.FinalStep)
	}
	c, err := RunRouterChaos(RouterChaosConfig{Seed: 12, Rounds: 8})
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if c.Digest == a.Digest {
		t.Fatalf("different seeds produced the same digest %016x", a.Digest)
	}
}
