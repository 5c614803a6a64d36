package filters

import (
	"fmt"

	"chatvis/internal/data"
	"chatvis/internal/vmath"
)

// ThresholdMethod selects which cells survive thresholding.
type ThresholdMethod int

// Threshold methods, mirroring VTK's vtkThreshold options.
const (
	// ThresholdAllPoints keeps a cell only if every point passes.
	ThresholdAllPoints ThresholdMethod = iota
	// ThresholdAnyPoint keeps a cell if at least one point passes.
	ThresholdAnyPoint
)

// Threshold keeps the cells whose point scalars fall inside [lo, hi],
// like ParaView's Threshold filter. The output is an unstructured grid
// with compacted points and all point data carried over. An image's
// cells are its voxels.
func Threshold(ds data.Dataset, array string, lo, hi float64, method ThresholdMethod) (*data.UnstructuredGrid, error) {
	f := ds.PointData().Get(array)
	if f == nil {
		return nil, fmt.Errorf("filters: threshold: no point array named %q", array)
	}
	if f.NumComponents != 1 {
		return nil, fmt.Errorf("filters: threshold: array %q is not a scalar", array)
	}
	nCells, ok := cellCount(ds)
	if !ok {
		return nil, fmt.Errorf("filters: threshold: unsupported dataset type %s", ds.TypeName())
	}

	pass := func(id int) bool {
		v := f.Scalar(id)
		return v >= lo && v <= hi
	}
	out := data.NewUnstructuredGrid()
	var srcFields, outFields []*data.Field
	pd := ds.PointData()
	for i := 0; i < pd.Len(); i++ {
		sf := pd.At(i)
		nf := data.NewField(sf.Name, sf.NumComponents, 0)
		srcFields = append(srcFields, sf)
		outFields = append(outFields, nf)
		out.Points.Add(nf)
	}
	remap := make([]int, ds.NumPoints()) // output id + 1; 0 = not yet copied
	mapPoint := func(id int) int {
		if nid := remap[id]; nid > 0 {
			return nid - 1
		}
		nid := out.AddPoint(ds.Point(id))
		for fi, sf := range srcFields {
			nf := outFields[fi]
			for c := 0; c < sf.NumComponents; c++ {
				nf.Data = append(nf.Data, sf.Value(id, c))
			}
		}
		remap[id] = nid + 1
		return nid
	}
	forCells(ds, 0, nCells, func(c data.Cell) {
		// All points must pass, or any one: the first point that
		// disagrees with the method's default decides.
		keep := method == ThresholdAllPoints
		for _, id := range c.IDs {
			if pass(id) != keep {
				keep = !keep
				break
			}
		}
		if !keep {
			return
		}
		ids := out.NewCell(c.Type, len(c.IDs))
		for i, id := range c.IDs {
			ids[i] = mapPoint(id)
		}
	})
	return out, nil
}

// TransformPolyData applies an affine transform to a polygonal dataset,
// returning a new dataset (point data is shared structure-wise via deep
// copy; normals are re-derived by callers if needed).
func TransformPolyData(pd *data.PolyData, m vmath.Mat4) *data.PolyData {
	out := pd.Clone()
	for i, p := range out.Pts {
		out.Pts[i] = m.MulPoint(p)
	}
	return out
}

// TransformGrid applies an affine transform to an unstructured grid.
func TransformGrid(ug *data.UnstructuredGrid, m vmath.Mat4) *data.UnstructuredGrid {
	out := data.NewUnstructuredGrid()
	out.Pts = make([]vmath.Vec3, len(ug.Pts))
	for i, p := range ug.Pts {
		out.Pts[i] = m.MulPoint(p)
	}
	out.Cells = make([]data.Cell, len(ug.Cells))
	for i, c := range ug.Cells {
		out.Cells[i] = data.Cell{Type: c.Type, IDs: append([]int(nil), c.IDs...)}
	}
	out.Points = ug.Points.Clone()
	out.CellD = ug.CellD.Clone()
	return out
}

// TransformFromTRS builds the VTK-style transform: scale, then rotate
// (Z, then X, then Y, in degrees), then translate.
func TransformFromTRS(translate, rotateDeg, scale vmath.Vec3) vmath.Mat4 {
	if scale == (vmath.Vec3{}) {
		scale = vmath.V(1, 1, 1)
	}
	m := vmath.Scale(scale)
	m = vmath.RotateAxis(vmath.V(0, 0, 1), vmath.Radians(rotateDeg.Z)).MulM(m)
	m = vmath.RotateAxis(vmath.V(1, 0, 0), vmath.Radians(rotateDeg.X)).MulM(m)
	m = vmath.RotateAxis(vmath.V(0, 1, 0), vmath.Radians(rotateDeg.Y)).MulM(m)
	return vmath.Translate(translate).MulM(m)
}
