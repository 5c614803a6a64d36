package data

import (
	"fmt"
	"math"

	"chatvis/internal/vmath"
)

// Dataset is the interface shared by all dataset types. It exposes the
// pieces the filters and renderer need: geometry (points, bounds) and
// attributes.
type Dataset interface {
	// NumPoints returns the number of points in the dataset.
	NumPoints() int
	// Point returns point i.
	Point(i int) vmath.Vec3
	// Bounds returns the axis-aligned bounding box of the geometry.
	Bounds() vmath.AABB
	// PointData returns the point-centered attribute arrays.
	PointData() *FieldSet
	// TypeName returns the VTK-style dataset class name, e.g.
	// "vtkImageData"; it appears in reader output and error messages.
	TypeName() string
}

// ImageData is a regular structured grid (VTK structured points): Dims
// samples per axis positioned at Origin + index*Spacing.
type ImageData struct {
	Dims    [3]int
	Origin  vmath.Vec3
	Spacing vmath.Vec3
	Points  *FieldSet
}

// NewImageData allocates an image dataset with the given dimensions.
func NewImageData(nx, ny, nz int, origin, spacing vmath.Vec3) *ImageData {
	return &ImageData{
		Dims:    [3]int{nx, ny, nz},
		Origin:  origin,
		Spacing: spacing,
		Points:  NewFieldSet(),
	}
}

// TypeName implements Dataset.
func (im *ImageData) TypeName() string { return "vtkImageData" }

// NumPoints implements Dataset.
func (im *ImageData) NumPoints() int { return im.Dims[0] * im.Dims[1] * im.Dims[2] }

// Index converts (i,j,k) to a flat point index.
func (im *ImageData) Index(i, j, k int) int {
	return i + im.Dims[0]*(j+im.Dims[1]*k)
}

// IJK converts a flat point index back to (i,j,k).
func (im *ImageData) IJK(idx int) (i, j, k int) {
	i = idx % im.Dims[0]
	j = (idx / im.Dims[0]) % im.Dims[1]
	k = idx / (im.Dims[0] * im.Dims[1])
	return
}

// Point implements Dataset.
func (im *ImageData) Point(idx int) vmath.Vec3 {
	i, j, k := im.IJK(idx)
	return vmath.Vec3{
		X: im.Origin.X + float64(i)*im.Spacing.X,
		Y: im.Origin.Y + float64(j)*im.Spacing.Y,
		Z: im.Origin.Z + float64(k)*im.Spacing.Z,
	}
}

// Bounds implements Dataset.
func (im *ImageData) Bounds() vmath.AABB {
	max := vmath.Vec3{
		X: im.Origin.X + float64(im.Dims[0]-1)*im.Spacing.X,
		Y: im.Origin.Y + float64(im.Dims[1]-1)*im.Spacing.Y,
		Z: im.Origin.Z + float64(im.Dims[2]-1)*im.Spacing.Z,
	}
	return vmath.AABB{Min: im.Origin.Min(max), Max: im.Origin.Max(max)}
}

// PointData implements Dataset.
func (im *ImageData) PointData() *FieldSet { return im.Points }

// SampleScalar trilinearly interpolates a 1-component field at world
// position p. The second return is false when p is outside the volume.
func (im *ImageData) SampleScalar(f *Field, p vmath.Vec3) (float64, bool) {
	vals, ok := im.sample(f, p)
	if !ok {
		return 0, false
	}
	return vals[0], true
}

// SampleVector trilinearly interpolates a 3-component field at world
// position p.
func (im *ImageData) SampleVector(f *Field, p vmath.Vec3) (vmath.Vec3, bool) {
	vals, ok := im.sample(f, p)
	if !ok {
		return vmath.Vec3{}, false
	}
	return vmath.Vec3{X: vals[0], Y: vals[1], Z: vals[2]}, true
}

func (im *ImageData) sample(f *Field, p vmath.Vec3) ([3]float64, bool) {
	var out [3]float64
	// Continuous index coordinates.
	fx := (p.X - im.Origin.X) / nonzero(im.Spacing.X)
	fy := (p.Y - im.Origin.Y) / nonzero(im.Spacing.Y)
	fz := (p.Z - im.Origin.Z) / nonzero(im.Spacing.Z)
	if fx < 0 || fy < 0 || fz < 0 ||
		fx > float64(im.Dims[0]-1) || fy > float64(im.Dims[1]-1) || fz > float64(im.Dims[2]-1) {
		return out, false
	}
	i0, j0, k0 := int(fx), int(fy), int(fz)
	clampIdx := func(v, hi int) int {
		if v > hi {
			return hi
		}
		return v
	}
	i1 := clampIdx(i0+1, im.Dims[0]-1)
	j1 := clampIdx(j0+1, im.Dims[1]-1)
	k1 := clampIdx(k0+1, im.Dims[2]-1)
	tx, ty, tz := fx-float64(i0), fy-float64(j0), fz-float64(k0)

	nc := f.NumComponents
	for c := 0; c < nc && c < 3; c++ {
		v000 := f.Value(im.Index(i0, j0, k0), c)
		v100 := f.Value(im.Index(i1, j0, k0), c)
		v010 := f.Value(im.Index(i0, j1, k0), c)
		v110 := f.Value(im.Index(i1, j1, k0), c)
		v001 := f.Value(im.Index(i0, j0, k1), c)
		v101 := f.Value(im.Index(i1, j0, k1), c)
		v011 := f.Value(im.Index(i0, j1, k1), c)
		v111 := f.Value(im.Index(i1, j1, k1), c)
		v00 := v000 + tx*(v100-v000)
		v10 := v010 + tx*(v110-v010)
		v01 := v001 + tx*(v101-v001)
		v11 := v011 + tx*(v111-v011)
		v0 := v00 + ty*(v10-v00)
		v1 := v01 + ty*(v11-v01)
		out[c] = v0 + tz*(v1-v0)
	}
	return out, true
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// CellType identifies the shape of an unstructured cell, using VTK's
// numbering so files and error messages match VTK conventions.
type CellType int

// VTK cell type identifiers (subset used by this engine).
const (
	CellVertex     CellType = 1
	CellLine       CellType = 3
	CellPolyLine   CellType = 4
	CellTriangle   CellType = 5
	CellPolygon    CellType = 7
	CellQuad       CellType = 9
	CellTetra      CellType = 10
	CellVoxel      CellType = 11
	CellHexahedron CellType = 12
	CellWedge      CellType = 13
	CellPyramid    CellType = 14
)

// NumCorners returns the point count for fixed-size cell types and 0 for
// variable-size ones (polyline, polygon).
func (c CellType) NumCorners() int {
	switch c {
	case CellVertex:
		return 1
	case CellLine:
		return 2
	case CellTriangle:
		return 3
	case CellQuad, CellTetra:
		return 4
	case CellPyramid:
		return 5
	case CellWedge:
		return 6
	case CellVoxel, CellHexahedron:
		return 8
	}
	return 0
}

func (c CellType) String() string {
	switch c {
	case CellVertex:
		return "vertex"
	case CellLine:
		return "line"
	case CellPolyLine:
		return "polyline"
	case CellTriangle:
		return "triangle"
	case CellPolygon:
		return "polygon"
	case CellQuad:
		return "quad"
	case CellTetra:
		return "tetra"
	case CellVoxel:
		return "voxel"
	case CellHexahedron:
		return "hexahedron"
	case CellWedge:
		return "wedge"
	case CellPyramid:
		return "pyramid"
	}
	return fmt.Sprintf("cellType(%d)", int(c))
}

// Cell is one unstructured cell: a type plus indices into the point array.
type Cell struct {
	Type CellType
	IDs  []int
}

// UnstructuredGrid is an explicit mesh of cells over a shared point list.
type UnstructuredGrid struct {
	Pts    []vmath.Vec3
	Cells  []Cell
	Points *FieldSet
	CellD  *FieldSet

	conn intSlab // backs NewCell id slices (see slab.go)
}

// NewUnstructuredGrid returns an empty grid.
func NewUnstructuredGrid() *UnstructuredGrid {
	return &UnstructuredGrid{Points: NewFieldSet(), CellD: NewFieldSet()}
}

// TypeName implements Dataset.
func (u *UnstructuredGrid) TypeName() string { return "vtkUnstructuredGrid" }

// NumPoints implements Dataset.
func (u *UnstructuredGrid) NumPoints() int { return len(u.Pts) }

// Point implements Dataset.
func (u *UnstructuredGrid) Point(i int) vmath.Vec3 { return u.Pts[i] }

// Bounds implements Dataset.
func (u *UnstructuredGrid) Bounds() vmath.AABB {
	b := vmath.EmptyAABB()
	for _, p := range u.Pts {
		b.Extend(p)
	}
	return b
}

// PointData implements Dataset.
func (u *UnstructuredGrid) PointData() *FieldSet { return u.Points }

// AddPoint appends a point and returns its index.
func (u *UnstructuredGrid) AddPoint(p vmath.Vec3) int {
	u.Pts = append(u.Pts, p)
	return len(u.Pts) - 1
}

// AddCell appends a cell.
func (u *UnstructuredGrid) AddCell(t CellType, ids ...int) {
	u.Cells = append(u.Cells, Cell{Type: t, IDs: ids})
}

// NumCells returns the number of cells.
func (u *UnstructuredGrid) NumCells() int { return len(u.Cells) }

// PolyData holds polygonal geometry: vertices, polylines and polygons over
// a shared point list, in VTK's connectivity style.
type PolyData struct {
	Pts    []vmath.Vec3
	Verts  [][]int // each entry: point ids rendered as points
	Lines  [][]int // each entry: a polyline (>=2 point ids)
	Polys  [][]int // each entry: a polygon (>=3 point ids)
	Points *FieldSet
	CellD  *FieldSet

	conn intSlab // backs AddTriangle/AddVert/New* id slices (see slab.go)
}

// NewPolyData returns empty polygonal data.
func NewPolyData() *PolyData {
	return &PolyData{Points: NewFieldSet(), CellD: NewFieldSet()}
}

// TypeName implements Dataset.
func (p *PolyData) TypeName() string { return "vtkPolyData" }

// NumPoints implements Dataset.
func (p *PolyData) NumPoints() int { return len(p.Pts) }

// Point implements Dataset.
func (p *PolyData) Point(i int) vmath.Vec3 { return p.Pts[i] }

// Bounds implements Dataset.
func (p *PolyData) Bounds() vmath.AABB {
	b := vmath.EmptyAABB()
	for _, pt := range p.Pts {
		b.Extend(pt)
	}
	return b
}

// PointData implements Dataset.
func (p *PolyData) PointData() *FieldSet { return p.Points }

// AddPoint appends a point and returns its index.
func (p *PolyData) AddPoint(pt vmath.Vec3) int {
	p.Pts = append(p.Pts, pt)
	return len(p.Pts) - 1
}

// AddTriangle appends a triangle polygon. The id slice is carved from
// the shared connectivity slab rather than individually allocated.
func (p *PolyData) AddTriangle(a, b, c int) {
	t := p.conn.take(3)
	t[0], t[1], t[2] = a, b, c
	p.Polys = append(p.Polys, t)
}

// AddPoly appends a polygon with the given point ids.
func (p *PolyData) AddPoly(ids ...int) { p.Polys = append(p.Polys, ids) }

// AddLine appends a polyline with the given point ids.
func (p *PolyData) AddLine(ids ...int) { p.Lines = append(p.Lines, ids) }

// AddVert appends a vertex cell.
func (p *PolyData) AddVert(id int) {
	v := p.conn.take(1)
	v[0] = id
	p.Verts = append(p.Verts, v)
}

// NumCells returns the total number of cells of all kinds.
func (p *PolyData) NumCells() int { return len(p.Verts) + len(p.Lines) + len(p.Polys) }

// NumTriangles counts triangles after fan-triangulating every polygon.
func (p *PolyData) NumTriangles() int {
	n := 0
	for _, poly := range p.Polys {
		if len(poly) >= 3 {
			n += len(poly) - 2
		}
	}
	return n
}

// EachTriangle invokes fn for every triangle of the fan triangulation of
// every polygon. It is the renderer's iteration primitive.
func (p *PolyData) EachTriangle(fn func(a, b, c int)) {
	for _, poly := range p.Polys {
		for i := 2; i < len(poly); i++ {
			fn(poly[0], poly[i-1], poly[i])
		}
	}
}

// Clone returns a deep copy of the polydata.
func (p *PolyData) Clone() *PolyData {
	out := NewPolyData()
	out.Pts = append([]vmath.Vec3(nil), p.Pts...)
	out.Verts = cloneConn(p.Verts)
	out.Lines = cloneConn(p.Lines)
	out.Polys = cloneConn(p.Polys)
	out.Points = p.Points.Clone()
	out.CellD = p.CellD.Clone()
	return out
}

func cloneConn(conn [][]int) [][]int {
	out := make([][]int, len(conn))
	total := 0
	for _, c := range conn {
		total += len(c)
	}
	// One flat backing array for every cloned cell instead of one
	// allocation per cell.
	flat := make([]int, 0, total)
	for i, c := range conn {
		off := len(flat)
		flat = append(flat, c...)
		out[i] = flat[off:len(flat):len(flat)]
	}
	return out
}

// FieldRange returns the range of the named point-data field of ds, or
// (0, 1) when missing — matching VTK's default lookup-table range.
func FieldRange(ds Dataset, name string) (lo, hi float64) {
	f := ds.PointData().Get(name)
	if f == nil {
		return 0, 1
	}
	lo, hi = f.Range()
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 1
	}
	return lo, hi
}
