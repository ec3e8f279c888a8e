// Package fault is the deterministic, seeded fault-injection layer and
// chaos harness. It drives the droplet workload while injecting the ugly
// NVBM failure modes the rest of the repo defends against — torn power
// cuts (the in-flight store persists only a subset of its cache lines),
// silent media bit-rot, wear-threshold stuck lines, and lossy replica
// shipping — and asserts after every crash that recovery yields a
// validated, previously committed version: the paper's §5.6 guarantee
// under adversarial conditions rather than clean stops.
//
// Everything is driven by a single seed; a run is bit-reproducible.
package fault

import (
	"math/rand"

	"pmoctree/internal/core"
	"pmoctree/internal/nvbm"
)

// Profile sets the per-step fault intensities for an Injector.
type Profile struct {
	// CutProb is the per-step probability of arming a torn power cut.
	CutProb float64
	// CutWindow bounds the armed write countdown: the cut fires after
	// a uniform [0, CutWindow) further NVBM writes, placing it anywhere
	// inside the step's persistence traffic.
	CutWindow int
	// RotProb is the per-step probability of a bit-rot event.
	RotProb float64
	// RotBurst is the maximum bit flips per rot event.
	RotBurst int
	// DropProb and CorruptProb parameterize the lossy replica link.
	DropProb    float64
	CorruptProb float64
	// WearLimit is the per-line endurance threshold (0 = unlimited);
	// SpareLines is the remap pool scrub draws from.
	WearLimit  uint32
	SpareLines int
}

// loseNewestProb is the share of recoveries on which LoseNewest damages
// the newest committed version beyond scrub's reach, so that restore has
// to fall back past it.
const loseNewestProb = 0.25

// DefaultProfile returns fault intensities tuned so a few dozen steps see
// several torn crashes, repeated bit-rot, occasional wear-out remaps,
// restores that fall back, and dropped replica frames, without making runs
// degenerate. CutWindow and WearLimit are sized to the droplet soak's
// device traffic, about 240 writes per step with allocation words landing
// once per commit, and 170 writes on its hottest line (the root table's)
// over 40 steps: that line wears out about once a run, drops a commit
// store, and the commit fails with pmem.ErrStoreLost.
func DefaultProfile() Profile {
	return Profile{
		CutProb:     0.25,
		CutWindow:   1000,
		RotProb:     0.5,
		RotBurst:    8,
		DropProb:    0.15,
		CorruptProb: 0.10,
		WearLimit:   80,
		SpareLines:  512,
	}
}

// Injector draws fault decisions from one seeded stream, so a fixed seed
// reproduces the exact same fault schedule.
type Injector struct {
	rng *rand.Rand
	p   Profile

	CutsArmed   uint64
	RotEvents   uint64
	BitsFlipped uint64
	NewestLost  uint64
}

// NewInjector builds an injector over the profile with its own RNG.
func NewInjector(seed int64, p Profile) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), p: p}
}

// ArmTornCut maybe arms a torn power cut on d for the coming step,
// reporting whether it did. The countdown and the tear pattern are both
// drawn from the injector's stream.
func (in *Injector) ArmTornCut(d *nvbm.Device) bool {
	if in.p.CutProb <= 0 || in.rng.Float64() >= in.p.CutProb {
		return false
	}
	window := in.p.CutWindow
	if window <= 0 {
		window = 1
	}
	d.CutPowerAfterTorn(in.rng.Intn(window), in.rng.Int63())
	in.CutsArmed++
	return true
}

// InjectRot maybe flips up to RotBurst random bits of d, returning how
// many were flipped.
func (in *Injector) InjectRot(d *nvbm.Device) int {
	if in.p.RotProb <= 0 || in.rng.Float64() >= in.p.RotProb {
		return 0
	}
	size := d.Size()
	if size == 0 {
		return 0
	}
	n := 1 + in.rng.Intn(max(in.p.RotBurst, 1))
	flipped := 0
	for i := 0; i < n; i++ {
		if d.FlipBit(in.rng.Intn(size), uint8(in.rng.Intn(8))) {
			flipped++
		}
	}
	if flipped > 0 {
		in.RotEvents++
		in.BitsFlipped += uint64(flipped)
	}
	return flipped
}

// LoseNewest maybe damages the newest committed version on d, reporting
// whether it did: it flips one bit of the record of the root octant the
// commit record names. Called after the pre-restore scrub, the rot is
// beyond scrub's reach, so a verifying restore rejects the version and
// falls back past it.
func (in *Injector) LoseNewest(d *nvbm.Device) bool {
	if in.rng.Float64() >= loseNewestProb {
		return false
	}
	off, n, err := core.CommittedRootRange(d)
	if err != nil {
		return false
	}
	d.FlipBit(off+in.rng.Intn(n), uint8(in.rng.Intn(8)))
	in.NewestLost++
	return true
}
