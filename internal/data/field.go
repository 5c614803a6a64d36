// Package data defines the VTK-like dataset model the engine operates on:
// attribute arrays (Field), structured volumes (ImageData), polygonal data
// (PolyData), and unstructured cell meshes (UnstructuredGrid).
//
// The model follows VTK conventions closely — datasets own points, named
// point-data and cell-data arrays, and cells indexing into the point list —
// so the ParaView simulation layer above maps one-to-one onto it.
package data

import (
	"fmt"
	"math"

	"chatvis/internal/vmath"
)

// Field is a named attribute array with a fixed number of components per
// tuple (1 for scalars, 3 for vectors). Data is stored interleaved.
type Field struct {
	Name          string
	NumComponents int
	Data          []float64
}

// NewField allocates a field of n tuples with comps components, zero-filled.
func NewField(name string, comps, n int) *Field {
	return &Field{Name: name, NumComponents: comps, Data: make([]float64, comps*n)}
}

// NumTuples returns the number of tuples in the field.
func (f *Field) NumTuples() int {
	if f.NumComponents == 0 {
		return 0
	}
	return len(f.Data) / f.NumComponents
}

// Value returns component c of tuple i.
func (f *Field) Value(i, c int) float64 { return f.Data[i*f.NumComponents+c] }

// Scalar returns tuple i of a 1-component field.
func (f *Field) Scalar(i int) float64 { return f.Data[i*f.NumComponents] }

// SetScalar sets tuple i of a 1-component field.
func (f *Field) SetScalar(i int, v float64) { f.Data[i*f.NumComponents] = v }

// Vec3 returns tuple i of a 3-component field as a vector.
func (f *Field) Vec3(i int) vmath.Vec3 {
	b := i * f.NumComponents
	return vmath.Vec3{X: f.Data[b], Y: f.Data[b+1], Z: f.Data[b+2]}
}

// SetVec3 sets tuple i of a 3-component field from a vector.
func (f *Field) SetVec3(i int, v vmath.Vec3) {
	b := i * f.NumComponents
	f.Data[b], f.Data[b+1], f.Data[b+2] = v.X, v.Y, v.Z
}

// Append adds one tuple to the field.
func (f *Field) Append(tuple ...float64) {
	if len(tuple) != f.NumComponents {
		panic(fmt.Sprintf("data: field %q expects %d components, got %d",
			f.Name, f.NumComponents, len(tuple)))
	}
	f.Data = append(f.Data, tuple...)
}

// Range returns the min and max over all components (for scalars this is the
// scalar range; for vectors, the per-component range as VTK reports when a
// single component is selected). An empty field returns (0, 1) like VTK's
// default transfer-function range.
func (f *Field) Range() (lo, hi float64) {
	if len(f.Data) == 0 {
		return 0, 1
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	d := make([]float64, len(f.Data))
	copy(d, f.Data)
	return &Field{Name: f.Name, NumComponents: f.NumComponents, Data: d}
}

// FieldSet is an ordered collection of named fields (point data or cell
// data). Order is preserved so file output is deterministic.
type FieldSet struct {
	fields []*Field
	index  map[string]int
}

// NewFieldSet returns an empty field set.
func NewFieldSet() *FieldSet {
	return &FieldSet{index: make(map[string]int)}
}

// Add inserts or replaces a field by name.
func (fs *FieldSet) Add(f *Field) {
	if fs.index == nil {
		fs.index = make(map[string]int)
	}
	if i, ok := fs.index[f.Name]; ok {
		fs.fields[i] = f
		return
	}
	fs.index[f.Name] = len(fs.fields)
	fs.fields = append(fs.fields, f)
}

// Get returns the field with the given name, or nil.
func (fs *FieldSet) Get(name string) *Field {
	if fs == nil || fs.index == nil {
		return nil
	}
	if i, ok := fs.index[name]; ok {
		return fs.fields[i]
	}
	return nil
}

// Has reports whether a field with the given name exists.
func (fs *FieldSet) Has(name string) bool { return fs.Get(name) != nil }

// Names returns the field names in insertion order.
func (fs *FieldSet) Names() []string {
	out := make([]string, len(fs.fields))
	for i, f := range fs.fields {
		out[i] = f.Name
	}
	return out
}

// Len returns the number of fields.
func (fs *FieldSet) Len() int { return len(fs.fields) }

// At returns the i-th field in insertion order.
func (fs *FieldSet) At(i int) *Field { return fs.fields[i] }

// First returns the first field, or nil if the set is empty. ParaView uses
// the first array as the default coloring array.
func (fs *FieldSet) First() *Field {
	if len(fs.fields) == 0 {
		return nil
	}
	return fs.fields[0]
}

// FirstScalar returns the first 1-component field, or nil.
func (fs *FieldSet) FirstScalar() *Field {
	for _, f := range fs.fields {
		if f.NumComponents == 1 {
			return f
		}
	}
	return nil
}

// FirstVector returns the first 3-component field, or nil.
func (fs *FieldSet) FirstVector() *Field {
	for _, f := range fs.fields {
		if f.NumComponents == 3 {
			return f
		}
	}
	return nil
}

// Clone returns a deep copy of the set.
func (fs *FieldSet) Clone() *FieldSet {
	out := NewFieldSet()
	for _, f := range fs.fields {
		out.Add(f.Clone())
	}
	return out
}
