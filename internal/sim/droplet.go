// Package sim provides the driving scientific workload of the evaluation —
// droplet ejection in inkjet printing (§5.1, Figure 1(c)) — and the AMR
// step driver that exercises an octree implementation with it.
//
// The paper runs a Gerris multiphase Navier-Stokes solve; this
// reproduction substitutes a semi-analytic moving-interface model that
// generates the same access pattern the octree observes: a thin refined
// band tracking the liquid surface as a jet emerges from a nozzle, necks,
// pinches off, and breaks into a main droplet plus satellites by capillary
// instability. Between consecutive steps only the band moves, so octant
// overlap between versions is high (39-99% in the paper, Figure 3), which
// is the property PM-octree exploits.
package sim

import "math"

// DropletConfig parameterizes the droplet-ejection interface model. The
// zero value is usable: Defaults fills canonical parameters.
type DropletConfig struct {
	// Steps is the nominal number of time steps of the full ejection
	// sequence; step s corresponds to normalized time s/Steps.
	Steps int
	// NozzleRadius is the jet radius at the nozzle exit.
	NozzleRadius float64
	// JetSpeed is the front advance per unit normalized time.
	JetSpeed float64
	// PinchTime is the normalized time of pinch-off at the nozzle.
	PinchTime float64
	// BreakupTime is the normalized time the ligament shatters into
	// satellite droplets.
	BreakupTime float64
	// Jets is the number of nozzles firing simultaneously, arranged on a
	// square grid in x-y with geometry scaled to fit — a printhead. The
	// weak-scaling experiments grow the problem by adding jets.
	// Default 1.
	Jets int
}

// Defaults fills unset fields with the canonical scenario.
func (c DropletConfig) Defaults() DropletConfig {
	if c.Steps <= 0 {
		c.Steps = 100
	}
	if c.NozzleRadius == 0 {
		c.NozzleRadius = 0.06
	}
	if c.JetSpeed == 0 {
		c.JetSpeed = 0.55
	}
	if c.PinchTime == 0 {
		c.PinchTime = 0.35
	}
	if c.BreakupTime == 0 {
		c.BreakupTime = 0.6
	}
	if c.Jets <= 0 {
		c.Jets = 1
	}
	return c
}

// Droplet is the analytic interface model. The liquid occupies the region
// where Phi < 0; the free surface is the zero level set.
type Droplet struct {
	cfg   DropletConfig
	jets  [][2]float64 // nozzle axis positions in x-y
	grid  int          // jets per printhead row
	scale float64      // lateral geometry scale (1/grid)
}

// NewDroplet builds the workload.
func NewDroplet(cfg DropletConfig) *Droplet {
	d := &Droplet{cfg: cfg.Defaults()}
	d.grid = int(math.Ceil(math.Sqrt(float64(d.cfg.Jets))))
	d.scale = 1 / float64(d.grid)
	for j := 0; j < d.cfg.Jets; j++ {
		gx, gy := j%d.grid, j/d.grid
		d.jets = append(d.jets, [2]float64{
			(float64(gx) + 0.5) * d.scale,
			(float64(gy) + 0.5) * d.scale,
		})
	}
	return d
}

// Jets returns the number of active nozzles.
func (d *Droplet) Jets() int { return d.cfg.Jets }

// Steps returns the configured step count.
func (d *Droplet) Steps() int { return d.cfg.Steps }

// nozzleZ is the nozzle exit plane; the jet travels toward z = 0.
const nozzleZ = 0.92

// Phi returns the approximate signed distance to the liquid surface at
// normalized time t (negative inside the liquid). With multiple jets it is
// the minimum over nozzles; since jets sit on a regular grid and each
// jet's liquid stays inside its column, only the 3x3 neighborhood of grid
// columns around the evaluation point can matter — O(1) per call however
// wide the printhead.
func (d *Droplet) Phi(x, y, z float64, t float64) float64 {
	if len(d.jets) == 1 {
		j := d.jets[0]
		return d.phiSingle(x-j[0]+0.5, y-j[1]+0.5, z, t, d.scale)
	}
	gx := int(math.Floor(x / d.scale))
	gy := int(math.Floor(y / d.scale))
	phi := math.Inf(1)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			cx, cy := gx+dx, gy+dy
			if cx < 0 || cy < 0 || cx >= d.grid || cy >= d.grid {
				continue
			}
			idx := cy*d.grid + cx
			if idx >= len(d.jets) {
				continue
			}
			j := d.jets[idx]
			if p := d.phiSingle(x-j[0]+0.5, y-j[1]+0.5, z, t, d.scale); p < phi {
				phi = p
			}
		}
	}
	if math.IsInf(phi, 1) {
		// Outside every populated column (partial last row): distance to
		// the nearest jet axis as a safe upper bound.
		for _, j := range d.jets {
			if p := d.phiSingle(x-j[0]+0.5, y-j[1]+0.5, z, t, d.scale); p < phi {
				phi = p
			}
		}
	}
	return phi
}

// phiSingle evaluates one jet centered on the (0.5, 0.5) axis with lateral
// radii scaled by s.
func (d *Droplet) phiSingle(x, y, z, t, s float64) float64 {
	c := d.cfg
	nozzleR := c.NozzleRadius * s
	phi := math.Inf(1)

	// Reservoir inside the nozzle: always present.
	phi = math.Min(phi, cylinderDist(x, y, z, nozzleZ, 1.01, nozzleR, nozzleR, nil))

	frontZ := nozzleZ - c.JetSpeed*t
	if frontZ < 0.06 {
		frontZ = 0.06 // droplet lands near the bottom and stays
	}
	dropR := nozzleR * 1.4

	switch {
	case t < c.PinchTime:
		// Attached jet: column from the nozzle to the front, necking
		// near the nozzle as pinch-off approaches.
		neckDepth := 0.97 * (t / c.PinchTime)
		neckZ := nozzleZ - 0.035
		radius := func(z float64) float64 {
			g := math.Exp(-sq((z - neckZ) / 0.02))
			return nozzleR * (1 - neckDepth*g)
		}
		phi = math.Min(phi, cylinderDist(x, y, z, frontZ, nozzleZ, nozzleR, nozzleR, radius))
		phi = math.Min(phi, sphereDist(x, y, z, 0.5, 0.5, frontZ, dropR*(0.4+0.6*t/c.PinchTime)))

	case t < c.BreakupTime:
		// Pinched: a free ligament chasing the main droplet.
		phi = math.Min(phi, sphereDist(x, y, z, 0.5, 0.5, frontZ, dropR))
		ligTop := nozzleZ - 0.02 - 0.25*(t-c.PinchTime)/(c.BreakupTime-c.PinchTime)
		ligBot := frontZ + dropR*0.9
		if ligBot < ligTop {
			shrink := 1 - 0.6*(t-c.PinchTime)/(c.BreakupTime-c.PinchTime)
			phi = math.Min(phi, cylinderDist(x, y, z, ligBot, ligTop, nozzleR*0.45*shrink, nozzleR*0.3*shrink, nil))
		}

	default:
		// Capillary breakup: main droplet plus three satellites.
		phi = math.Min(phi, sphereDist(x, y, z, 0.5, 0.5, frontZ, dropR))
		lag := (t - c.BreakupTime)
		sats := [3]struct{ off, r, v float64 }{
			{0.10, 0.030, 0.85},
			{0.16, 0.022, 0.70},
			{0.21, 0.018, 0.55},
		}
		for _, sat := range sats {
			sz := frontZ + sat.off + lag*c.JetSpeed*(1-sat.v)
			if sz > nozzleZ-0.02 {
				continue // reabsorbed
			}
			phi = math.Min(phi, sphereDist(x, y, z, 0.5, 0.5, sz, sat.r*s))
		}
	}
	return phi
}

// PhiAtStep evaluates Phi at the normalized time of step s.
func (d *Droplet) PhiAtStep(x, y, z float64, step int) float64 {
	return d.Phi(x, y, z, float64(step)/float64(d.cfg.Steps))
}

// sphereDist is the signed distance to a sphere surface.
func sphereDist(x, y, z, cx, cy, cz, r float64) float64 {
	return math.Sqrt(sq(x-cx)+sq(y-cy)+sq(z-cz)) - r
}

// cylinderDist approximates the signed distance to an axis-aligned (z)
// cylinder segment centered at (0.5, 0.5), spanning [z0, z1], with radius
// interpolating r0 (bottom) to r1 (top), optionally modulated by radius(z).
func cylinderDist(x, y, z, z0, z1, r0, r1 float64, radius func(float64) float64) float64 {
	dAxis := math.Sqrt(sq(x-0.5) + sq(y-0.5))
	zc := math.Max(z0, math.Min(z1, z))
	var r float64
	if radius != nil {
		r = radius(zc)
	} else {
		f := 0.0
		if z1 > z0 {
			f = (zc - z0) / (z1 - z0)
		}
		r = r0 + (r1-r0)*f
	}
	dr := dAxis - r
	dz := math.Max(z0-z, z-z1)
	if dz <= 0 {
		return dr
	}
	if dr <= 0 {
		return dz
	}
	return math.Sqrt(dr*dr + dz*dz)
}

func sq(v float64) float64 { return v * v }
