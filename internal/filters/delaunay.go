package filters

import (
	"fmt"
	"math"
	"sort"

	"chatvis/internal/data"
	"chatvis/internal/vmath"
)

// delTet is a tetrahedron during Bowyer–Watson insertion with its cached
// circumsphere.
type delTet struct {
	v      [4]int
	center vmath.Vec3
	r2     float64
	alive  bool
}

// circumsphere computes the circumcenter and squared radius of (a,b,c,d).
// ok is false for (nearly) degenerate tetrahedra.
func circumsphere(a, b, c, d vmath.Vec3) (center vmath.Vec3, r2 float64, ok bool) {
	// Solve 2*(x-a)·(b-a) = |b|²-|a|² style system relative to a.
	ab := b.Sub(a)
	ac := c.Sub(a)
	ad := d.Sub(a)
	// Matrix rows: ab, ac, ad; rhs: half squared lengths.
	rhs := vmath.V(ab.Len2()/2, ac.Len2()/2, ad.Len2()/2)
	det := ab.Dot(ac.Cross(ad))
	if math.Abs(det) < 1e-14 {
		return center, 0, false
	}
	// Cramer's rule with the cross-product form of the inverse.
	inv := 1 / det
	u := ac.Cross(ad).Mul(rhs.X)
	v := ad.Cross(ab).Mul(rhs.Y)
	w := ab.Cross(ac).Mul(rhs.Z)
	rel := u.Add(v).Add(w).Mul(inv)
	center = a.Add(rel)
	r2 = rel.Len2()
	return center, r2, true
}

// Delaunay3D computes the three-dimensional Delaunay tetrahedralization of
// the input points using incremental Bowyer–Watson insertion, as VTK's
// Delaunay3D filter does. Point data from the input is carried over
// unchanged (the output references the same point set in the same order).
func Delaunay3D(ds data.Dataset) (*data.UnstructuredGrid, error) {
	n := ds.NumPoints()
	if n < 4 {
		return nil, fmt.Errorf("filters: delaunay3d: need at least 4 points, have %d", n)
	}
	pts := make([]vmath.Vec3, n)
	for i := 0; i < n; i++ {
		pts[i] = ds.Point(i)
	}
	bounds := ds.Bounds()
	diag := bounds.Diagonal()
	if diag == 0 {
		return nil, fmt.Errorf("filters: delaunay3d: degenerate point cloud")
	}
	// Deterministic symbolic-perturbation jitter for the predicates only;
	// output geometry keeps the original coordinates.
	jittered := make([]vmath.Vec3, n)
	for i, p := range pts {
		h := uint64(i)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
		j := func(shift uint) float64 {
			return (float64((h>>shift)&0xffff)/65535 - 0.5) * diag * 1e-7
		}
		jittered[i] = p.Add(vmath.V(j(0), j(16), j(32)))
	}
	// Super-tetrahedron comfortably containing everything.
	c := bounds.Center()
	s := diag * 20
	super := [4]vmath.Vec3{
		c.Add(vmath.V(0, 0, 3*s)),
		c.Add(vmath.V(-2*s, -s, -s)),
		c.Add(vmath.V(2*s, -s, -s)),
		c.Add(vmath.V(0, 2*s, -s)),
	}
	all := append(append([]vmath.Vec3{}, jittered...), super[0], super[1], super[2], super[3])
	superBase := n

	var tets []delTet
	addTet := func(a, b, cc, d int) error {
		ctr, r2, ok := circumsphere(all[a], all[b], all[cc], all[d])
		if !ok {
			// Degenerate sliver caused by coplanar inputs: skip it; the
			// cavity fill from neighbouring faces still covers the region.
			return nil
		}
		tets = append(tets, delTet{v: [4]int{a, b, cc, d}, center: ctr, r2: r2, alive: true})
		return nil
	}
	if err := addTet(superBase, superBase+1, superBase+2, superBase+3); err != nil {
		return nil, err
	}

	type face struct{ a, b, c int }
	canon := func(a, b, c int) face {
		v := []int{a, b, c}
		sort.Ints(v)
		return face{v[0], v[1], v[2]}
	}

	faceCount := make(map[face]int)
	var faces []face // cavity faces in the order first counted
	for pi := 0; pi < n; pi++ {
		p := all[pi]
		// Find all alive tets whose circumsphere contains p.
		clear(faceCount)
		faces = faces[:0]
		found := false
		for ti := range tets {
			t := &tets[ti]
			if !t.alive {
				continue
			}
			if p.Sub(t.center).Len2() <= t.r2*(1+1e-12) {
				t.alive = false
				found = true
				v := t.v
				for _, f := range [4][3]int{
					{v[0], v[1], v[2]}, {v[0], v[1], v[3]},
					{v[0], v[2], v[3]}, {v[1], v[2], v[3]},
				} {
					cf := canon(f[0], f[1], f[2])
					if faceCount[cf] == 0 {
						faces = append(faces, cf)
					}
					faceCount[cf]++
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("filters: delaunay3d: point %d not inside any circumsphere (numerical failure)", pi)
		}
		// Cavity boundary = faces used exactly once; connect p to each,
		// in a fixed order so the output does not depend on map order.
		for _, f := range faces {
			if faceCount[f] == 1 {
				if err := addTet(f.a, f.b, f.c, pi); err != nil {
					return nil, err
				}
			}
		}
		// Periodic compaction keeps the scan cost bounded.
		if len(tets) > 4*n+1024 {
			compact := tets[:0]
			for _, t := range tets {
				if t.alive {
					compact = append(compact, t)
				}
			}
			tets = compact
		}
	}

	out := data.NewUnstructuredGrid()
	out.Pts = append(out.Pts, pts...)
	out.Points = ds.PointData().Clone()
	for _, t := range tets {
		if !t.alive {
			continue
		}
		usesSuper := false
		for _, v := range t.v {
			if v >= superBase {
				usesSuper = true
				break
			}
		}
		if usesSuper {
			continue
		}
		// Keep positive orientation for downstream volume math.
		a, b, cc, d := t.v[0], t.v[1], t.v[2], t.v[3]
		if TetVolume(pts[a], pts[b], pts[cc], pts[d]) < 0 {
			b, cc = cc, b
		}
		out.AddCell(data.CellTetra, a, b, cc, d)
	}
	if out.NumCells() == 0 {
		return nil, fmt.Errorf("filters: delaunay3d: triangulation produced no tetrahedra")
	}
	return out, nil
}
