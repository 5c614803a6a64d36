package vtkio

import (
	"bytes"
	"strings"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/filters"
)

const legacyHeader = "# vtk DataFile Version 3.0\nt\nASCII\n"

// TestReadLegacyRejectsHostileHeaders: each file declares a count or an
// id that would panic the reader (an allocation sized by a negative or
// absurd count) or a downstream filter (a cell id or field length that
// does not match the points). The reader must refuse all of them with a
// vtkio error.
func TestReadLegacyRejectsHostileHeaders(t *testing.T) {
	cases := map[string]string{
		"negative POINTS":           "DATASET POLYDATA\nPOINTS -1 float\n",
		"huge POINTS":               "DATASET POLYDATA\nPOINTS 1099511627776 float\n0 0 0\n",
		"negative POLYGONS":         "DATASET POLYDATA\nPOINTS 1 float\n0 0 0\nPOLYGONS -2 0\n",
		"negative cell size":        "DATASET POLYDATA\nPOINTS 1 float\n0 0 0\nPOLYGONS 1 4\n-3 0 0 0\n",
		"huge CELLS":                "DATASET UNSTRUCTURED_GRID\nPOINTS 1 float\n0 0 0\nCELLS 1099511627776 0\n",
		"polygon id past points":    "DATASET POLYDATA\nPOINTS 3 float\n0 0 0 1 0 0 0 1 0\nPOLYGONS 1 4\n3 0 1 3\n",
		"negative vertex id":        "DATASET POLYDATA\nPOINTS 1 float\n0 0 0\nVERTICES 1 2\n1 -1\n",
		"line id past points":       "DATASET POLYDATA\nPOINTS 2 float\n0 0 0 1 0 0\nLINES 1 3\n2 0 5\n",
		"cell id past points":       "DATASET UNSTRUCTURED_GRID\nPOINTS 4 float\n0 0 0 1 0 0 0 1 0 0 0 1\nCELLS 1 5\n4 0 1 2 9\nCELL_TYPES 1\n10\n",
		"cell ids before POINTS":    "DATASET UNSTRUCTURED_GRID\nCELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n10\nPOINTS 3 float\n0 0 0 1 0 0 0 1 0\n",
		"short polydata POINT_DATA": "DATASET POLYDATA\nPOINTS 3 float\n0 0 0 1 0 0 0 1 0\nPOINT_DATA 1\nSCALARS s float\nLOOKUP_TABLE default\n0.5\n",
		"negative POINT_DATA":       "DATASET UNSTRUCTURED_GRID\nPOINT_DATA -1\nSCALARS s float\nLOOKUP_TABLE default\n",
		"long grid POINT_DATA":      "DATASET UNSTRUCTURED_GRID\nPOINTS 1 float\n0 0 0\nPOINT_DATA 2\nVECTORS v float\n0 0 0 1 1 1\n",
		"negative components":       "DATASET STRUCTURED_POINTS\nDIMENSIONS 1 1 1\nPOINT_DATA 1\nSCALARS s float -1\nLOOKUP_TABLE default\n",
		"negative DIMENSIONS":       "DATASET STRUCTURED_POINTS\nDIMENSIONS 2 2 -1\n",
		"overflowing DIMENSIONS":    "DATASET STRUCTURED_POINTS\nDIMENSIONS 4294967296 4294967296 4\n",
		"NaN coordinate":            "DATASET POLYDATA\nPOINTS 1 float\nnan 0 0\n",
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			ds, err := ReadLegacyVTK(strings.NewReader(legacyHeader + body))
			if err == nil {
				t.Fatalf("read succeeded: %T with %d points", ds, ds.NumPoints())
			}
			if !strings.HasPrefix(err.Error(), "vtkio:") {
				t.Errorf("error %q lacks the vtkio: prefix", err)
			}
		})
	}
}

// FuzzReadLegacyVTK feeds arbitrary bytes to the legacy reader. It must
// not panic, and a dataset it accepts must be safe to index: every cell
// id names a point, every point field has one tuple per point, and an
// unstructured grid's render surface can be extracted.
func FuzzReadLegacyVTK(f *testing.F) {
	for _, ds := range []data.Dataset{
		datagen.MarschnerLobb(24), // the DataSmall inputs
		datagen.CanPoints(24, 10),
		datagen.DiskFlow(6, 24, 6),
	} {
		var buf bytes.Buffer
		if err := WriteLegacyVTK(&buf, ds, "seed"); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(legacyHeader + "DATASET POLYDATA\nPOINTS 3 float\n0 0 0 1 0 0 0 1 0\nPOLYGONS 1 4\n3 0 1 2\nLINES 1 3\n2 0 2\nPOINT_DATA 3\nSCALARS s float 1\nLOOKUP_TABLE default\n1 2 3\n"))
	f.Add([]byte(legacyHeader + "DATASET UNSTRUCTURED_GRID\nPOINTS 4 float\n0 0 0 1 0 0 0 1 0 0 0 1\nCELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n10\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		ds, err := ReadLegacyVTK(bytes.NewReader(src))
		if err != nil {
			return
		}
		n := ds.NumPoints()
		checkConn := func(conn [][]int) {
			for _, ids := range conn {
				for _, id := range ids {
					if id < 0 || id >= n {
						t.Fatalf("accepted id %d of %d points", id, n)
					}
				}
			}
		}
		switch d := ds.(type) {
		case *data.PolyData:
			checkConn(d.Verts)
			checkConn(d.Lines)
			checkConn(d.Polys)
		case *data.UnstructuredGrid:
			for _, c := range d.Cells {
				checkConn([][]int{c.IDs})
			}
			filters.ExtractSurface(d)
		}
		pd := ds.PointData()
		for i := 0; i < pd.Len(); i++ {
			if fl := pd.At(i); fl.NumComponents < 1 || len(fl.Data) != fl.NumComponents*n {
				t.Fatalf("field %q: %d values, %d components, %d points", fl.Name, len(fl.Data), fl.NumComponents, n)
			}
		}
	})
}
