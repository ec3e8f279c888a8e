package fluid

import "math"

// The per-field advection sampler, kept as the test oracle the fused
// sample4 sweep is pinned to: each of the four fields runs the full
// container and corner lookup on its own.

// cellValue reads the piecewise-constant field at a point.
func (st *State) cellValue(field []float64, x, y, z float64) float64 {
	if i, ok := st.Sys.CellAt(x, y, z); ok {
		return field[i]
	}
	return 0
}

// sample interpolates one field at a point, trilinear over a virtual
// uniform grid at the local cell size.
func (st *State) sample(field []float64, x, y, z float64) float64 {
	i, ok := st.Sys.CellAt(x, y, z)
	if !ok {
		return 0
	}
	h := st.Sys.Extent(i)
	gx, gy, gz := x/h-0.5, y/h-0.5, z/h-0.5
	ix, iy, iz := math.Floor(gx), math.Floor(gy), math.Floor(gz)
	fx, fy, fz := gx-ix, gy-iy, gz-iz
	acc := 0.0
	for k := 0; k < 8; k++ {
		ax, ay, az := float64(k&1), float64((k>>1)&1), float64((k>>2)&1)
		w := lerpw(fx, ax) * lerpw(fy, ay) * lerpw(fz, az)
		if w == 0 {
			continue
		}
		px := (ix + ax + 0.5) * h
		py := (iy + ay + 0.5) * h
		pz := (iz + az + 0.5) * h
		acc += w * st.cellValue(field, clamp01(px), clamp01(py), clamp01(pz))
	}
	return acc
}

// advectRef is the advection sweep with one full sample per field.
func (st *State) advectRef(dt float64) {
	n := st.Sys.N()
	st.pool.RunMin(n, minAdvect, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cx, cy, cz := st.Sys.Center(i)
			bx := cx - dt*st.U[i]
			by := cy - dt*st.V[i]
			bz := cz - dt*st.W[i]
			st.u2[i] = st.sample(st.U, bx, by, bz)
			st.v2[i] = st.sample(st.V, bx, by, bz)
			st.w2[i] = st.sample(st.W, bx, by, bz)
			st.vof2[i] = st.sample(st.VOF, bx, by, bz)
		}
	})
	copy(st.U, st.u2)
	copy(st.V, st.v2)
	copy(st.W, st.w2)
	copy(st.VOF, st.vof2)
}
