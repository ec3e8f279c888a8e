package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"pmoctree/internal/cluster"
	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/recovery"
	"pmoctree/internal/sim"
	"pmoctree/internal/telemetry"
)

// ChaosConfig parameterizes a chaos soak run.
type ChaosConfig struct {
	Seed       int64
	Steps      int   // droplet steps to attempt (default 40)
	MaxLevel   uint8 // refinement bound (default 4)
	DRAMBudget int   // C0 budget in octants (default 4096)
	Profile    Profile
	// QueryReaders, when positive, runs that many concurrent MVCC snapshot
	// readers (internal/serve) against a catalog of pinned committed
	// versions for the whole soak — querying while the writer steps,
	// crashes, and recovers. Every batch double-reads one immutable
	// snapshot and must see bit-identical results; a divergence fails the
	// run. Reader timing perturbs arena layout (pin lifetimes change what
	// GC can free), so reports are no longer bit-reproducible across runs
	// when this is set.
	QueryReaders int
	// QueryStats, when non-nil, receives the query-side totals at run end.
	QueryStats *QueryStats
	// Recorder, when non-nil, receives a flight event per commit attempt,
	// commit, crash, restore, scrub pass, and rot injection, so a failed
	// soak leaves a black box: the dump's commit/commit_attempt digests
	// are exactly the legitimate recovery targets, and every restore event
	// must name one of them. The recorder never feeds report fields, so
	// bit-reproducibility per seed is unaffected.
	Recorder *telemetry.FlightRecorder
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Steps <= 0 {
		c.Steps = 40
	}
	if c.MaxLevel == 0 {
		c.MaxLevel = 4
	}
	if c.DRAMBudget <= 0 {
		c.DRAMBudget = 4096
	}
	if c.Profile == (Profile{}) {
		c.Profile = DefaultProfile()
	}
	return c
}

// ChaosReport is the outcome of a soak run. Every field is a pure
// function of the seed, so two runs with the same config produce
// identical reports (the bit-reproducibility contract).
type ChaosReport struct {
	Seed        int64
	Steps       int // steps attempted
	Committed   int // steps that persisted successfully
	CutsArmed   int // torn power cuts armed
	Crashes     int // power-loss crashes taken (cuts that fired)
	NewestLost  int // recoveries whose newest committed version was damaged first
	RotEvents   int
	BitsFlipped int

	Restores         int // successful restores after a crash
	Fallbacks        int // restores that walked past the newest version
	Failovers        int // restores that needed the remote replica
	ValidateFailures int // mid-run validation failures and lost stores, treated as crashes

	SyncFailures int // replica frames abandoned after retries
	Link         cluster.LossyStats

	ScrubPasses       int
	ScrubCorrupt      int // CRC-bad lines found by scrub
	ScrubRepaired     int // lines repaired from the replica
	ScrubRemapped     int // worn-out lines remapped onto spares
	ScrubUnrepairable int // lines scrub could not heal
	StuckWrites       uint64
	TornWrites        uint64
	TornLinesDropped  uint64

	DegradedReplicas int // replicas lagging their primary at run end

	FinalStep   uint64 // committed version number at run end
	FinalLeaves int
	Digest      uint64 // FNV-64a over the committed-version digest history
}

// String renders the report as a stable, diffable summary.
func (r ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d steps=%d committed=%d\n", r.Seed, r.Steps, r.Committed)
	fmt.Fprintf(&b, "  cuts: armed=%d fired=%d torn_writes=%d torn_lines_dropped=%d newest_lost=%d\n",
		r.CutsArmed, r.Crashes, r.TornWrites, r.TornLinesDropped, r.NewestLost)
	fmt.Fprintf(&b, "  rot: events=%d bits=%d  stuck_writes=%d\n", r.RotEvents, r.BitsFlipped, r.StuckWrites)
	fmt.Fprintf(&b, "  recovery: restores=%d fallbacks=%d failovers=%d validate_failures=%d\n",
		r.Restores, r.Fallbacks, r.Failovers, r.ValidateFailures)
	fmt.Fprintf(&b, "  scrub: passes=%d corrupt=%d repaired=%d remapped=%d unrepairable=%d\n",
		r.ScrubPasses, r.ScrubCorrupt, r.ScrubRepaired, r.ScrubRemapped, r.ScrubUnrepairable)
	fmt.Fprintf(&b, "  replica: frames=%d delivered=%d drops=%d corrupts=%d sync_failures=%d degraded=%d\n",
		r.Link.Frames, r.Link.Delivered, r.Link.Drops, r.Link.Corrupts, r.SyncFailures, r.DegradedReplicas)
	fmt.Fprintf(&b, "  final: step=%d leaves=%d digest=%016x\n", r.FinalStep, r.FinalLeaves, r.Digest)
	return b.String()
}

// Run executes the chaos soak: the droplet workload steps and persists
// under randomly injected torn power cuts, bit-rot, wear-out, and lossy
// replica syncs; every crash is recovered through the full chain
// (pre-restore scrub when the replica is commit-fresh, multi-version
// fallback restore, replica failover) and the recovered state is checked
// against the history of committed versions. An error means the recovery
// guarantee was violated — a corrupt state was accepted or a recoverable
// run was lost.
func Run(cfg ChaosConfig) (ChaosReport, error) {
	cfg = cfg.withDefaults()
	rep := ChaosReport{Seed: cfg.Seed, Steps: cfg.Steps}

	in := NewInjector(cfg.Seed, cfg.Profile)
	nv := nvbm.New(nvbm.NVBM, 0)
	nv.EnableMediaTracking()
	nv.SetWearLimit(cfg.Profile.WearLimit)
	nv.SetSpareLines(cfg.Profile.SpareLines)

	mkConfig := func(dev *nvbm.Device) core.Config {
		return core.Config{
			NVBMDevice:        dev,
			DRAMDevice:        nvbm.New(nvbm.DRAM, 0),
			DRAMBudgetOctants: cfg.DRAMBudget,
			Seed:              cfg.Seed,
			RetainVersions:    2,
			VerifyRestore:     true,
		}
	}
	tree := core.Create(mkConfig(nv))
	d := sim.NewDroplet(sim.DropletConfig{Steps: cfg.Steps + 2})
	tree.SetFeatures(d.Feature(1))

	srv := startChaosServing(cfg.QueryReaders, tree)
	defer srv.stop(cfg.QueryStats)

	link := cluster.NewLossyNetwork(cluster.Gemini(), cfg.Profile.DropProb, cfg.Profile.CorruptProb, cfg.Seed+101)
	mgr := recovery.NewReplicaManager(2, 0, cluster.Gemini())
	mgr.SetLink(link)

	// history records the digest of every version ever committed; a
	// recovered state must match one of them.
	history := map[uint64]bool{commitDigest(tree): true}
	cfg.Recorder.Record(telemetry.FlightEvent{Kind: "commit", Step: tree.CommittedStep(), Value: commitDigest(tree)})
	histHash := fnv.New64a()
	addHistory := func(dg uint64) {
		history[dg] = true
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], dg)
		histHash.Write(b[:])
	}
	replicaStep := uint64(0) // committed step the replica mirrors
	haveReplica := false

	// recoverTree runs the recovery chain after a crash (or a failed
	// validation) at workload step s.
	recoverTree := func(s int) error {
		// Exclude reader batches for the whole recovery: the catalog is
		// retired (draining every pin) before the tree is rebuilt, and
		// scrub rewrites device bytes in place.
		srv.lockFaults()
		defer srv.unlockFaults()
		srv.retire()
		nv.RestorePower()
		// Pre-restore scrub: when the replica mirrors the device's
		// current committed version, heal media damage before validation
		// so restore rejects as little as possible. Otherwise only remap
		// worn-out lines, so a root-table line that dropped a commit
		// store takes the restored tree's stores again.
		if devStep, err := core.CommittedStepOf(nv); err == nil && haveReplica && devStep == replicaStep {
			accumulateScrub(&rep, cfg.Recorder, scrubFromReplica(nv, mgr))
		} else {
			rep.ScrubRemapped += nv.RemapWorn()
		}
		if in.LoseNewest(nv) {
			cfg.Recorder.Record(telemetry.FlightEvent{Kind: "lose_newest", Step: uint64(s)})
		}
		t, rrep, err := core.RestoreWithReport(mkConfig(nv))
		if err != nil && haveReplica {
			// The surviving device has no intact version: fail over to
			// the replica image on the peer node.
			img, _, rerr := mgr.Recover(0)
			if rerr == nil {
				if t2, rrep2, err2 := core.RestoreWithReport(mkConfig(img)); err2 == nil {
					rep.StuckWrites += nv.FaultStats().StuckWrites
					rep.TornWrites += nv.FaultStats().TornWrites
					rep.TornLinesDropped += nv.FaultStats().TornLinesDropped
					nv, t, rrep, err = img, t2, rrep2, nil
					rep.Failovers++
					replicaStep = t.CommittedStep()
				}
			}
		}
		if err != nil {
			return fmt.Errorf("step %d: unrecoverable: %w", s, err)
		}
		rep.Restores++
		if rrep.Fallbacks > 0 {
			rep.Fallbacks++
		}
		dg := commitDigest(t)
		cfg.Recorder.Record(telemetry.FlightEvent{Kind: "restore", Step: t.CommittedStep(), Value: dg,
			Detail: fmt.Sprintf("fallbacks=%d", rrep.Fallbacks)})
		if !history[dg] {
			return fmt.Errorf("step %d: restored version (step %d) was never committed", s, rrep.ChosenStep)
		}
		tree = t
		tree.SetFeatures(d.Feature(s + 1))
		srv.rebind(tree)
		return nil
	}

	for s := 1; s <= cfg.Steps; s++ {
		in.ArmTornCut(nv)
		crashed := false
		pending := uint64(0)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != nvbm.ErrPowerLost {
						// Corruption-driven panics (walking a rotted
						// pointer) and commits failed by a store a
						// worn-out line dropped (pmem.ErrStoreLost) are
						// crashes too; recovery must handle them
						// identically.
						rep.ValidateFailures++
					} else {
						rep.Crashes++
					}
					crashed = true
				}
			}()
			sim.Step(tree, d, s, cfg.MaxLevel)
			tree.SetFeatures(d.Feature(s + 1))
			// The version about to be committed becomes legitimate the
			// instant Persist's root store lands; record its digest
			// before attempting, since a crash later in Persist (GC,
			// retarget) leaves it durably committed.
			pending = workingDigest(tree)
			cfg.Recorder.Record(telemetry.FlightEvent{Kind: "commit_attempt", Step: tree.Step(), Value: pending})
			tree.Persist()
		}()
		if crashed {
			cfg.Recorder.Record(telemetry.FlightEvent{Kind: "crash", Step: uint64(s)})
			if pending != 0 {
				addHistory(pending)
			}
			if err := recoverTree(s); err != nil {
				finalize(&rep, in, link, mgr, nv, tree)
				return rep, err
			}
			continue
		}
		nv.RestorePower() // disarm an unspent countdown
		rep.Committed++
		addHistory(commitDigest(tree))
		cfg.Recorder.Record(telemetry.FlightEvent{Kind: "commit", Step: tree.CommittedStep(), Value: commitDigest(tree)})
		srv.publish()

		if err := mgr.Sync(0, nv); err != nil {
			rep.SyncFailures++
		} else {
			haveReplica = true
			replicaStep = tree.CommittedStep()
		}
		// Rot and scrub mutate device bytes in place; exclude reader
		// batches so a double pass never straddles a flip or a repair.
		srv.lockFaults()
		rotBefore := in.BitsFlipped
		in.InjectRot(nv)
		if flipped := in.BitsFlipped - rotBefore; flipped > 0 {
			cfg.Recorder.Record(telemetry.FlightEvent{Kind: "inject_rot", Step: uint64(s), Value: uint64(flipped)})
		}
		if haveReplica && replicaStep == tree.CommittedStep() {
			accumulateScrub(&rep, cfg.Recorder, scrubFromReplica(nv, mgr))
		}
		srv.unlockFaults()
		if err := safeValidate(tree); err != nil {
			rep.ValidateFailures++
			if rerr := recoverTree(s); rerr != nil {
				finalize(&rep, in, link, mgr, nv, tree)
				return rep, rerr
			}
		}
	}
	finalize(&rep, in, link, mgr, nv, tree)
	rep.Digest = histHash.Sum64()
	srv.stop(cfg.QueryStats)
	if n := srv.mismatchCount(); n > 0 {
		return rep, fmt.Errorf("snapshot immutability violated: %d double-pass mismatches on pinned versions", n)
	}
	// The device the soak ends with restores to a version it committed. The
	// restore runs on a clone, so the report does not depend on it.
	final, rrep, err := core.RestoreWithReport(mkConfig(nv.Clone()))
	if err != nil {
		return rep, fmt.Errorf("final restore: %w", err)
	}
	if !history[commitDigest(final)] {
		return rep, fmt.Errorf("final restore landed on step %d, a version that was never committed", rrep.ChosenStep)
	}
	return rep, nil
}

// scrubFromReplica runs one scrub pass on dev, repairing corrupt lines
// from the (commit-fresh) replica image.
func scrubFromReplica(dev *nvbm.Device, mgr *recovery.ReplicaManager) nvbm.ScrubReport {
	img := mgr.ReplicaImage(0)
	if img == nil {
		return dev.Scrub(nil)
	}
	b := img.Bytes()
	return dev.Scrub(func(off int, p []byte) bool {
		if off < 0 || off+len(p) > len(b) {
			return false
		}
		copy(p, b[off:off+len(p)])
		return true
	})
}

func accumulateScrub(rep *ChaosReport, fr *telemetry.FlightRecorder, sr nvbm.ScrubReport) {
	rep.ScrubPasses++
	rep.ScrubCorrupt += sr.Corrupt
	rep.ScrubRepaired += sr.Repaired
	rep.ScrubRemapped += sr.Remapped
	rep.ScrubUnrepairable += sr.Unrepairable
	fr.Record(telemetry.FlightEvent{Kind: "scrub", Value: uint64(sr.Repaired),
		Detail: fmt.Sprintf("corrupt=%d repaired=%d remapped=%d unrepairable=%d",
			sr.Corrupt, sr.Repaired, sr.Remapped, sr.Unrepairable)})
}

func finalize(rep *ChaosReport, in *Injector, link *cluster.LossyNetwork,
	mgr *recovery.ReplicaManager, nv *nvbm.Device, tree *core.Tree) {
	rep.CutsArmed = int(in.CutsArmed)
	rep.NewestLost = int(in.NewestLost)
	rep.RotEvents = int(in.RotEvents)
	rep.BitsFlipped = int(in.BitsFlipped)
	rep.Link = link.Stats()
	fs := nv.FaultStats()
	rep.StuckWrites += fs.StuckWrites
	rep.TornWrites += fs.TornWrites
	rep.TornLinesDropped += fs.TornLinesDropped
	for _, st := range mgr.Report() {
		if st.Degraded {
			rep.DegradedReplicas++
		}
	}
	rep.FinalStep = tree.CommittedStep()
	rep.FinalLeaves = tree.LeafCount()
}

// commitDigest hashes the committed version's full contents (codes and
// data in Z-order) into one word; equal digests identify equal versions.
func commitDigest(t *core.Tree) uint64 {
	h := fnv.New64a()
	digestWalk(h, t.ForEachCommittedNode)
	return h.Sum64()
}

// workingDigest hashes the working version the same way; just before
// Persist it equals what commitDigest will return after (Persist moves
// octants but never changes codes or data).
func workingDigest(t *core.Tree) uint64 {
	h := fnv.New64a()
	digestWalk(h, t.ForEachNode)
	return h.Sum64()
}

func digestWalk(h interface{ Write([]byte) (int, error) }, walk func(func(core.Ref, *core.Octant) bool)) {
	var b [8]byte
	walk(func(_ core.Ref, o *core.Octant) bool {
		binary.LittleEndian.PutUint64(b[:], uint64(o.Code))
		h.Write(b[:])
		for _, v := range o.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		return true
	})
}

// safeValidate converts validation panics (walking corrupted refs) into
// errors so the harness can route them through crash recovery.
func safeValidate(t *core.Tree) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("validate panicked: %v", r)
		}
	}()
	return t.Validate()
}
