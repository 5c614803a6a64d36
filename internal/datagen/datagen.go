// Package datagen synthesizes the three datasets used in the paper's
// experiments:
//
//   - ml-100.vtk: the Marschner–Lobb volume-rendering benchmark (analytic,
//     so ours is the same dataset as the paper's by construction),
//   - can_points.ex2: a point cloud standing in for the point set the
//     authors extracted from ParaView's "can" sample data,
//   - disk.ex2: an annular flow volume standing in for ParaView's
//     disk_out_ref sample (velocity V, temperature Temp, pressure Pres).
//
// See DESIGN.md for the substitution rationale.
package datagen

import (
	"math"

	"chatvis/internal/data"
	"chatvis/internal/vmath"
)

// MarschnerLobbValue evaluates the Marschner–Lobb test signal at (x,y,z) in
// [-1,1]^3, using the canonical parameters fM=6, alpha=0.25 from the 1994
// paper. The result lies in [0,1].
func MarschnerLobbValue(x, y, z float64) float64 {
	const (
		fM    = 6.0
		alpha = 0.25
	)
	r := math.Sqrt(x*x + y*y)
	rhoR := math.Cos(2 * math.Pi * fM * math.Cos(math.Pi*r/2))
	return (1 - math.Sin(math.Pi*z/2) + alpha*(1+rhoR)) / (2 * (1 + alpha))
}

// MarschnerLobb samples the benchmark on an n^3 grid over [-1,1]^3 and
// stores the scalar as point data named "var0" (the array name the paper's
// prompts reference).
func MarschnerLobb(n int) *data.ImageData {
	if n < 2 {
		n = 2
	}
	spacing := 2.0 / float64(n-1)
	im := data.NewImageData(n, n, n, vmath.V(-1, -1, -1), vmath.V(spacing, spacing, spacing))
	f := data.NewField("var0", 1, im.NumPoints())
	idx := 0
	for k := 0; k < n; k++ {
		z := -1 + float64(k)*spacing
		for j := 0; j < n; j++ {
			y := -1 + float64(j)*spacing
			for i := 0; i < n; i++ {
				x := -1 + float64(i)*spacing
				f.SetScalar(idx, MarschnerLobbValue(x, y, z))
				idx++
			}
		}
	}
	im.Points.Add(f)
	return im
}

// SparseBlob builds an n³ volume whose "var0" field is a single compact
// Gaussian blob tucked into the (+,+,+) corner: isosurface crossings at
// mid-range levels are confined to the tail of the k-major point order,
// so roughly 90% of the cell sweep is empty while the last stretch does
// all the marching work. It is the adversarial load-balance case for
// the static chunk split (the last chunks own everything) and backs the
// SparseContour64 kernel in benchkernels.
func SparseBlob(n int) *data.ImageData {
	if n < 2 {
		n = 2
	}
	spacing := 2.0 / float64(n-1)
	im := data.NewImageData(n, n, n, vmath.V(-1, -1, -1), vmath.V(spacing, spacing, spacing))
	f := data.NewField("var0", 1, im.NumPoints())
	const sigma = 0.18
	idx := 0
	for k := 0; k < n; k++ {
		z := -1 + float64(k)*spacing
		for j := 0; j < n; j++ {
			y := -1 + float64(j)*spacing
			for i := 0; i < n; i++ {
				x := -1 + float64(i)*spacing
				dx, dy, dz := x-0.7, y-0.7, z-0.7
				r2 := dx*dx + dy*dy + dz*dz
				f.SetScalar(idx, math.Exp(-r2/(2*sigma*sigma)))
				idx++
			}
		}
	}
	im.Points.Add(f)
	return im
}

// CanPoints builds a "crushed can" point cloud: points sampled on a
// cylindrical shell with sinusoidal crush dents, a rim, and a lid, plus a
// nodal displacement magnitude field "DISPL". Cells are vertex cells so the
// dataset reads back as a point cloud, which is what Delaunay3D consumes.
//
// nTheta and nZ control the sampling density of the shell; the total point
// count is approximately nTheta*nZ plus the lid points.
func CanPoints(nTheta, nZ int) *data.UnstructuredGrid {
	if nTheta < 8 {
		nTheta = 8
	}
	if nZ < 4 {
		nZ = 4
	}
	const (
		radius = 1.0
		height = 2.5
	)
	ug := data.NewUnstructuredGrid()
	displ := data.NewField("DISPL", 1, 0)

	addPoint := func(p vmath.Vec3, d float64) {
		id := ug.AddPoint(p)
		displ.Append(d)
		ug.AddCell(data.CellVertex, id)
	}

	// Crushed shell: radius modulated by dents that deepen toward the top,
	// deterministic (no RNG) so files are bit-stable.
	for iz := 0; iz < nZ; iz++ {
		z := height * float64(iz) / float64(nZ-1)
		crush := 0.35 * (z / height) * (z / height)
		for it := 0; it < nTheta; it++ {
			theta := 2 * math.Pi * float64(it) / float64(nTheta)
			dent := crush * (0.5 + 0.5*math.Sin(3*theta+4*z))
			r := radius * (1 - dent)
			p := vmath.V(r*math.Cos(theta), r*math.Sin(theta), z)
			addPoint(p, dent*radius)
		}
	}
	// Lid: concentric rings at the top.
	rings := nTheta / 6
	if rings < 3 {
		rings = 3
	}
	for ir := 0; ir < rings; ir++ {
		r := radius * float64(ir) / float64(rings)
		count := 1 + int(float64(nTheta)*float64(ir)/float64(rings))
		for it := 0; it < count; it++ {
			theta := 2 * math.Pi * float64(it) / float64(count)
			p := vmath.V(r*math.Cos(theta), r*math.Sin(theta), height)
			addPoint(p, 0)
		}
	}
	ug.Points.Add(displ)
	return ug
}

// DiskFlowField evaluates the analytic disk flow at a point: a swirling
// annular flow (azimuthal swirl decaying with radius, parabolic axial jet)
// used for the streamline experiment. Returns velocity, temperature and
// pressure.
func DiskFlowField(p vmath.Vec3) (vel vmath.Vec3, temp, pres float64) {
	const (
		rInner = 0.5
		rOuter = 2.0
		height = 2.0
	)
	r := math.Hypot(p.X, p.Y)
	if r < 1e-9 {
		r = 1e-9
	}
	// Unit azimuthal direction.
	tHat := vmath.V(-p.Y/r, p.X/r, 0)
	// Swirl: solid-body near the hub transitioning to free vortex.
	swirl := 1.6 * r / (1 + r*r)
	// Axial: parabolic in radius, max at mid annulus.
	mid := (rInner + rOuter) / 2
	halfW := (rOuter - rInner) / 2
	axial := 0.9 * (1 - ((r-mid)/halfW)*((r-mid)/halfW))
	if axial < 0.05 {
		axial = 0.05
	}
	// Gentle radial outflow increasing with height.
	radial := 0.12 * (p.Z / height)
	rHat := vmath.V(p.X/r, p.Y/r, 0)
	vel = tHat.Mul(swirl).Add(vmath.V(0, 0, axial)).Add(rHat.Mul(radial))
	// Hot at the hub, cooling outward and upward.
	temp = 300 + 600*math.Exp(-2*(r-rInner)/(rOuter-rInner)) - 40*p.Z/height
	pres = 101 + 15*(1-r/rOuter) - 5*p.Z/height
	return vel, temp, pres
}

// DiskFlow builds the annular hex mesh with nodal fields V (velocity, 3
// components), Temp and Pres, standing in for ParaView's disk_out_ref. The
// mesh has nr radial, nTheta azimuthal (wrapping) and nz axial samples.
func DiskFlow(nr, nTheta, nz int) *data.UnstructuredGrid {
	if nr < 2 {
		nr = 2
	}
	if nTheta < 3 {
		nTheta = 3
	}
	if nz < 2 {
		nz = 2
	}
	const (
		rInner = 0.5
		rOuter = 2.0
		height = 2.0
	)
	ug := data.NewUnstructuredGrid()
	n := nr * nTheta * nz
	vel := data.NewField("V", 3, n)
	temp := data.NewField("Temp", 1, n)
	pres := data.NewField("Pres", 1, n)

	// Node index (ir, it, iz), theta wraps (no duplicated seam nodes).
	nodeID := func(ir, it, iz int) int {
		it = (it + nTheta) % nTheta
		return ir + nr*(it+nTheta*iz)
	}
	for iz := 0; iz < nz; iz++ {
		z := height * float64(iz) / float64(nz-1)
		for it := 0; it < nTheta; it++ {
			theta := 2 * math.Pi * float64(it) / float64(nTheta)
			for ir := 0; ir < nr; ir++ {
				r := rInner + (rOuter-rInner)*float64(ir)/float64(nr-1)
				p := vmath.V(r*math.Cos(theta), r*math.Sin(theta), z)
				id := ug.AddPoint(p)
				if id != nodeID(ir, it, iz) {
					panic("datagen: node ordering broken")
				}
				v, tK, pK := DiskFlowField(p)
				vel.SetVec3(id, v)
				temp.SetScalar(id, tK)
				pres.SetScalar(id, pK)
			}
		}
	}
	// Hexahedral cells; VTK hexahedron ordering: bottom quad (counter-
	// clockwise), then top quad.
	for iz := 0; iz < nz-1; iz++ {
		for it := 0; it < nTheta; it++ {
			for ir := 0; ir < nr-1; ir++ {
				ug.AddCell(data.CellHexahedron,
					nodeID(ir, it, iz), nodeID(ir+1, it, iz),
					nodeID(ir+1, it+1, iz), nodeID(ir, it+1, iz),
					nodeID(ir, it, iz+1), nodeID(ir+1, it, iz+1),
					nodeID(ir+1, it+1, iz+1), nodeID(ir, it+1, iz+1))
			}
		}
	}
	ug.Points.Add(vel)
	ug.Points.Add(temp)
	ug.Points.Add(pres)
	return ug
}

// DiskBounds reports the analytic extent of the disk flow dataset, used by
// seeding logic and tests.
func DiskBounds() vmath.AABB {
	return vmath.AABB{Min: vmath.V(-2, -2, 0), Max: vmath.V(2, 2, 2)}
}
