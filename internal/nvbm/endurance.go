package nvbm

import (
	"fmt"
	"math"
)

// EnduranceReport estimates device lifetime from observed wear. NVBM cells
// endure a bounded number of writes (Table 2: 1e6-1e8 per bit); the
// lifetime of the device is set by its MOST-written line, which is why
// §5.5 credits the dynamic transformation with "extend[ing] the lifetime
// of NVBM" — it moves the hottest write traffic to DRAM.
type EnduranceReport struct {
	// Endurance is the per-line write budget assumed (writes).
	Endurance uint64
	// MaxWear is the writes absorbed by the hottest line so far.
	MaxWear uint32
	// MeanWear is the average writes per line.
	MeanWear float64
	// Imbalance is MaxWear / MeanWear; large values mean hot-spotting
	// burns out the device long before average wear would.
	Imbalance float64
	// StepsObserved is the simulation span the wear was accumulated over.
	StepsObserved int
	// LifetimeSteps extrapolates how many simulation steps the device
	// survives at the observed peak wear rate (0 if no wear observed;
	// math.MaxInt64 semantics are avoided by capping).
	LifetimeSteps float64
}

// EstimateLifetime builds a report from a device's wear counters after
// stepsObserved simulation steps, assuming the given per-line endurance.
func (d *Device) EstimateLifetime(stepsObserved int, endurance uint64) EnduranceReport {
	ws := d.Wear()
	rep := EnduranceReport{
		Endurance:     endurance,
		MaxWear:       ws.MaxWear,
		MeanWear:      ws.MeanWear(),
		Imbalance:     ws.WearImbalance(),
		StepsObserved: stepsObserved,
	}
	if ws.MaxWear > 0 && stepsObserved > 0 {
		perStep := float64(ws.MaxWear) / float64(stepsObserved)
		rep.LifetimeSteps = float64(endurance) / perStep
	} else {
		rep.LifetimeSteps = math.Inf(1)
	}
	return rep
}

// String formats the report.
func (r EnduranceReport) String() string {
	return fmt.Sprintf("max wear %d/%d lines over %d steps (imbalance %.1fx); ~%.3g steps to wear-out",
		r.MaxWear, r.Endurance, r.StepsObserved, r.Imbalance, r.LifetimeSteps)
}
