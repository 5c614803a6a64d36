// Package filters implements the visualization algorithms behind the
// ParaView filter proxies: isosurfacing, slicing, clipping, Delaunay
// triangulation, streamline tracing, tube and glyph generation, and surface
// extraction. All filters consume and produce the dataset model in
// internal/data.
package filters

import (
	"chatvis/internal/data"
	"chatvis/internal/vmath"
)

// kuhnTets lists the six tetrahedra of the Kuhn subdivision of a cube whose
// corners are indexed by bitmask (bit0→+x, bit1→+y, bit2→+z). Every tet is
// a monotone path 0→7; neighbouring cubes that use the same subdivision
// share face diagonals, so marching the tets produces crack-free surfaces.
var kuhnTets = [6][4]int{
	{0, 1, 3, 7}, // +x +y +z
	{0, 1, 5, 7}, // +x +z +y
	{0, 2, 3, 7}, // +y +x +z
	{0, 2, 6, 7}, // +y +z +x
	{0, 4, 5, 7}, // +z +x +y
	{0, 4, 6, 7}, // +z +y +x
}

// hexToBitmask maps bitmask corner order to VTK hexahedron connectivity
// order (bottom quad counter-clockwise, then top quad).
var hexToBitmask = [8]int{0, 1, 3, 2, 4, 5, 7, 6}

// CellTets appends the tetra decomposition of one unstructured cell to dst
// as 4-tuples of point ids. Supported: tetra (identity), voxel and
// hexahedron (6 Kuhn tets), wedge (3 tets), pyramid (2 tets). Unsupported
// cell types contribute nothing.
func CellTets(c data.Cell, dst [][4]int) [][4]int {
	switch c.Type {
	case data.CellTetra:
		if len(c.IDs) >= 4 {
			dst = append(dst, [4]int{c.IDs[0], c.IDs[1], c.IDs[2], c.IDs[3]})
		}
	case data.CellVoxel:
		if len(c.IDs) >= 8 {
			for _, t := range kuhnTets {
				dst = append(dst, [4]int{c.IDs[t[0]], c.IDs[t[1]], c.IDs[t[2]], c.IDs[t[3]]})
			}
		}
	case data.CellHexahedron:
		if len(c.IDs) >= 8 {
			for _, t := range kuhnTets {
				dst = append(dst, [4]int{
					c.IDs[hexToBitmask[t[0]]], c.IDs[hexToBitmask[t[1]]],
					c.IDs[hexToBitmask[t[2]]], c.IDs[hexToBitmask[t[3]]],
				})
			}
		}
	case data.CellWedge:
		if len(c.IDs) >= 6 {
			// Wedge corners: triangle 0,1,2 bottom; 3,4,5 top.
			dst = append(dst,
				[4]int{c.IDs[0], c.IDs[1], c.IDs[2], c.IDs[3]},
				[4]int{c.IDs[1], c.IDs[2], c.IDs[3], c.IDs[4]},
				[4]int{c.IDs[2], c.IDs[3], c.IDs[4], c.IDs[5]})
		}
	case data.CellPyramid:
		if len(c.IDs) >= 5 {
			dst = append(dst,
				[4]int{c.IDs[0], c.IDs[1], c.IDs[2], c.IDs[4]},
				[4]int{c.IDs[0], c.IDs[2], c.IDs[3], c.IDs[4]})
		}
	}
	return dst
}

// GridTets returns the tetra decomposition of every volumetric cell of ug.
func GridTets(ug *data.UnstructuredGrid) [][4]int {
	var out [][4]int
	for _, c := range ug.Cells {
		out = CellTets(c, out)
	}
	return out
}

// imageCubeCount returns the number of cells (cubes) of an ImageData —
// the unit the parallel marching sweep chunks over.
func imageCubeCount(im *data.ImageData) int {
	nx, ny, nz := im.Dims[0], im.Dims[1], im.Dims[2]
	if nx < 2 || ny < 2 || nz < 2 {
		return 0
	}
	return (nx - 1) * (ny - 1) * (nz - 1)
}

// imageTetsRange enumerates, without materializing them, the Kuhn
// tetrahedra of the cubes with flat cube index in [start, end): fn is
// called with the 4 flat point indices of each tet, cubes in i-fastest
// order, so concatenating ranges in order enumerates the whole grid.
func imageTetsRange(im *data.ImageData, start, end int, fn func(t [4]int)) {
	nx, ny := im.Dims[0], im.Dims[1]
	cx, cy := nx-1, ny-1
	var corner [8]int
	for c := start; c < end; c++ {
		i := c % cx
		j := (c / cx) % cy
		k := c / (cx * cy)
		for b := 0; b < 8; b++ {
			corner[b] = im.Index(i+b&1, j+(b>>1)&1, k+(b>>2)&1)
		}
		for _, t := range kuhnTets {
			fn([4]int{corner[t[0]], corner[t[1]], corner[t[2]], corner[t[3]]})
		}
	}
}

// TetVolume returns the signed volume of the tetrahedron (a,b,c,d).
func TetVolume(a, b, c, d vmath.Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a)) / 6
}

// Barycentric computes the barycentric coordinates of p in tet (a,b,c,d).
// ok is false for degenerate tets.
func Barycentric(p, a, b, c, d vmath.Vec3) (l [4]float64, ok bool) {
	vol := TetVolume(a, b, c, d)
	if vol == 0 {
		return l, false
	}
	inv := 1 / vol
	l[0] = TetVolume(p, b, c, d) * inv
	l[1] = TetVolume(a, p, c, d) * inv
	l[2] = TetVolume(a, b, p, d) * inv
	l[3] = TetVolume(a, b, c, p) * inv
	return l, true
}

// InsideTet reports whether barycentric coordinates describe a point inside
// the tet, within tolerance eps.
func InsideTet(l [4]float64, eps float64) bool {
	return l[0] >= -eps && l[1] >= -eps && l[2] >= -eps && l[3] >= -eps
}
