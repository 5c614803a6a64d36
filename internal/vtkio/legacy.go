// Package vtkio reads and writes the dataset model.
//
// Two formats are supported:
//
//   - Legacy VTK ASCII files (*.vtk) for STRUCTURED_POINTS, POLYDATA and
//     UNSTRUCTURED_GRID datasets — the format used by the paper's
//     ml-100.vtk input.
//   - A simulated Exodus-II container (*.ex2). Real Exodus-II is a NetCDF
//     schema; here we implement a small self-describing binary with the
//     Exodus concepts the experiments touch (coordinates, element blocks,
//     nodal variables). The substitution is documented in DESIGN.md.
package vtkio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"chatvis/internal/data"
	"chatvis/internal/vmath"
)

// WriteLegacyVTK writes ds to w in legacy VTK ASCII format. Supported
// dataset types: *data.ImageData, *data.PolyData, *data.UnstructuredGrid.
func WriteLegacyVTK(w io.Writer, ds data.Dataset, title string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	if title == "" {
		title = "chatvis dataset"
	}
	fmt.Fprintln(bw, title)
	fmt.Fprintln(bw, "ASCII")
	switch d := ds.(type) {
	case *data.ImageData:
		writeStructuredPoints(bw, d)
	case *data.PolyData:
		writePolyData(bw, d)
	case *data.UnstructuredGrid:
		writeUnstructuredGrid(bw, d)
	default:
		return fmt.Errorf("vtkio: unsupported dataset type %T", ds)
	}
	writePointData(bw, ds)
	return bw.Flush()
}

// SaveLegacyVTK writes ds to the named file.
func SaveLegacyVTK(path string, ds data.Dataset, title string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteLegacyVTK(f, ds, title); err != nil {
		return err
	}
	return f.Sync()
}

func writeStructuredPoints(w *bufio.Writer, d *data.ImageData) {
	fmt.Fprintln(w, "DATASET STRUCTURED_POINTS")
	fmt.Fprintf(w, "DIMENSIONS %d %d %d\n", d.Dims[0], d.Dims[1], d.Dims[2])
	fmt.Fprintf(w, "ORIGIN %g %g %g\n", d.Origin.X, d.Origin.Y, d.Origin.Z)
	fmt.Fprintf(w, "SPACING %g %g %g\n", d.Spacing.X, d.Spacing.Y, d.Spacing.Z)
}

func writePolyData(w *bufio.Writer, d *data.PolyData) {
	fmt.Fprintln(w, "DATASET POLYDATA")
	fmt.Fprintf(w, "POINTS %d float\n", len(d.Pts))
	for _, p := range d.Pts {
		fmt.Fprintf(w, "%g %g %g\n", p.X, p.Y, p.Z)
	}
	writeConn := func(keyword string, conn [][]int) {
		if len(conn) == 0 {
			return
		}
		size := 0
		for _, c := range conn {
			size += 1 + len(c)
		}
		fmt.Fprintf(w, "%s %d %d\n", keyword, len(conn), size)
		for _, c := range conn {
			fmt.Fprintf(w, "%d", len(c))
			for _, id := range c {
				fmt.Fprintf(w, " %d", id)
			}
			fmt.Fprintln(w)
		}
	}
	writeConn("VERTICES", d.Verts)
	writeConn("LINES", d.Lines)
	writeConn("POLYGONS", d.Polys)
}

func writeUnstructuredGrid(w *bufio.Writer, d *data.UnstructuredGrid) {
	fmt.Fprintln(w, "DATASET UNSTRUCTURED_GRID")
	fmt.Fprintf(w, "POINTS %d float\n", len(d.Pts))
	for _, p := range d.Pts {
		fmt.Fprintf(w, "%g %g %g\n", p.X, p.Y, p.Z)
	}
	size := 0
	for _, c := range d.Cells {
		size += 1 + len(c.IDs)
	}
	fmt.Fprintf(w, "CELLS %d %d\n", len(d.Cells), size)
	for _, c := range d.Cells {
		fmt.Fprintf(w, "%d", len(c.IDs))
		for _, id := range c.IDs {
			fmt.Fprintf(w, " %d", id)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "CELL_TYPES %d\n", len(d.Cells))
	for _, c := range d.Cells {
		fmt.Fprintf(w, "%d\n", int(c.Type))
	}
}

func writePointData(w *bufio.Writer, ds data.Dataset) {
	pd := ds.PointData()
	if pd == nil || pd.Len() == 0 {
		return
	}
	fmt.Fprintf(w, "POINT_DATA %d\n", ds.NumPoints())
	for i := 0; i < pd.Len(); i++ {
		f := pd.At(i)
		switch f.NumComponents {
		case 1:
			fmt.Fprintf(w, "SCALARS %s float 1\n", f.Name)
			fmt.Fprintln(w, "LOOKUP_TABLE default")
			for j := 0; j < f.NumTuples(); j++ {
				fmt.Fprintf(w, "%g\n", f.Scalar(j))
			}
		case 3:
			fmt.Fprintf(w, "VECTORS %s float\n", f.Name)
			for j := 0; j < f.NumTuples(); j++ {
				v := f.Vec3(j)
				fmt.Fprintf(w, "%g %g %g\n", v.X, v.Y, v.Z)
			}
		default:
			fmt.Fprintf(w, "FIELD FieldData 1\n%s %d %d float\n",
				f.Name, f.NumComponents, f.NumTuples())
			for j := range f.Data {
				fmt.Fprintf(w, "%g\n", f.Data[j])
			}
		}
	}
}

// tokenReader provides whitespace-separated token scanning with line
// tracking for error messages.
type tokenReader struct {
	sc   *bufio.Scanner
	toks []string
	pos  int
	line int
}

func newTokenReader(r io.Reader) *tokenReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	return &tokenReader{sc: sc}
}

func (t *tokenReader) next() (string, error) {
	for t.pos >= len(t.toks) {
		if !t.sc.Scan() {
			if err := t.sc.Err(); err != nil {
				return "", fmt.Errorf("vtkio: line %d: %w", t.line+1, err)
			}
			return "", io.EOF
		}
		t.line++
		t.toks = strings.Fields(t.sc.Text())
		t.pos = 0
	}
	tok := t.toks[t.pos]
	t.pos++
	return tok, nil
}

func (t *tokenReader) nextInt() (int, error) {
	tok, err := t.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("vtkio: line %d: expected integer, got %q", t.line, tok)
	}
	return v, nil
}

// nextCount reads a header count. Counts are never trusted as
// allocation sizes (readers grow by append), but a negative one is an
// error.
func (t *tokenReader) nextCount(what string) (int, error) {
	n, err := t.nextInt()
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("vtkio: line %d: negative %s count %d", t.line, what, n)
	}
	return n, nil
}

func (t *tokenReader) nextFloat() (float64, error) {
	tok, err := t.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("vtkio: line %d: expected number, got %q", t.line, tok)
	}
	return v, nil
}

// ReadLegacyVTK parses a legacy VTK ASCII stream.
func ReadLegacyVTK(r io.Reader) (data.Dataset, error) {
	br := bufio.NewReader(r)
	// Header: comment line, title line, format line.
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("vtkio: reading header: %w", err)
	}
	if !strings.HasPrefix(header, "# vtk DataFile") {
		return nil, fmt.Errorf("vtkio: not a legacy VTK file (header %q)", strings.TrimSpace(header))
	}
	if _, err := br.ReadString('\n'); err != nil { // title
		return nil, fmt.Errorf("vtkio: reading title: %w", err)
	}
	format, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("vtkio: reading format: %w", err)
	}
	if strings.TrimSpace(strings.ToUpper(format)) != "ASCII" {
		return nil, fmt.Errorf("vtkio: only ASCII files supported, got %q", strings.TrimSpace(format))
	}
	tr := newTokenReader(br)
	kw, err := tr.next()
	if err != nil {
		return nil, fmt.Errorf("vtkio: missing DATASET keyword: %w", err)
	}
	if strings.ToUpper(kw) != "DATASET" {
		return nil, fmt.Errorf("vtkio: expected DATASET, got %q", kw)
	}
	kind, err := tr.next()
	if err != nil {
		return nil, fmt.Errorf("vtkio: missing dataset kind: %w", err)
	}
	var ds data.Dataset
	switch strings.ToUpper(kind) {
	case "STRUCTURED_POINTS":
		ds, err = readStructuredPoints(tr)
	case "POLYDATA":
		ds, err = readPolyData(tr)
	case "UNSTRUCTURED_GRID":
		ds, err = readUnstructuredGrid(tr)
	default:
		return nil, fmt.Errorf("vtkio: unsupported dataset kind %q", kind)
	}
	// Sections end cleanly at EOF, so an EOF that escapes one cut a
	// record short.
	if err == io.EOF {
		return nil, fmt.Errorf("vtkio: line %d: unexpected end of file", tr.line)
	}
	return ds, err
}

// LoadLegacyVTK reads a legacy VTK file from disk.
func LoadLegacyVTK(path string) (data.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLegacyVTK(f)
}

// maxLegacyPoints bounds the point count a STRUCTURED_POINTS header may
// declare, so the product of its dimensions cannot overflow an int.
const maxLegacyPoints = 1 << 30

func readStructuredPoints(tr *tokenReader) (data.Dataset, error) {
	var dims [3]int
	var origin, spacing vmath.Vec3
	origin = vmath.V(0, 0, 0)
	spacing = vmath.V(1, 1, 1)
	dimsSeen := false
	for {
		kw, err := tr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch strings.ToUpper(kw) {
		case "DIMENSIONS":
			n := 1
			for i := 0; i < 3; i++ {
				if dims[i], err = tr.nextInt(); err != nil {
					return nil, err
				}
				if dims[i] < 1 || dims[i] > maxLegacyPoints/n {
					return nil, fmt.Errorf("vtkio: line %d: DIMENSIONS %d out of range", tr.line, dims[i])
				}
				n *= dims[i]
			}
			dimsSeen = true
		case "ORIGIN":
			if origin, err = readVec3(tr); err != nil {
				return nil, err
			}
		case "SPACING", "ASPECT_RATIO":
			if spacing, err = readVec3(tr); err != nil {
				return nil, err
			}
		case "POINT_DATA":
			if !dimsSeen {
				return nil, fmt.Errorf("vtkio: POINT_DATA before DIMENSIONS")
			}
			im := data.NewImageData(dims[0], dims[1], dims[2], origin, spacing)
			if err := readPointData(tr, im.Points, im.NumPoints()); err != nil {
				return nil, err
			}
			return im, nil
		default:
			return nil, fmt.Errorf("vtkio: unexpected keyword %q in structured points", kw)
		}
	}
	if !dimsSeen {
		return nil, fmt.Errorf("vtkio: structured points without DIMENSIONS")
	}
	return data.NewImageData(dims[0], dims[1], dims[2], origin, spacing), nil
}

func readVec3(tr *tokenReader) (vmath.Vec3, error) {
	var v vmath.Vec3
	var err error
	if v.X, err = tr.nextFloat(); err != nil {
		return v, err
	}
	if v.Y, err = tr.nextFloat(); err != nil {
		return v, err
	}
	v.Z, err = tr.nextFloat()
	return v, err
}

func readPoints(tr *tokenReader) ([]vmath.Vec3, error) {
	n, err := tr.nextCount("POINTS")
	if err != nil {
		return nil, err
	}
	if _, err := tr.next(); err != nil { // data type (float/double), ignored
		return nil, err
	}
	var pts []vmath.Vec3
	for i := 0; i < n; i++ {
		p, err := readVec3(tr)
		if err != nil {
			return nil, err
		}
		if !finite(p) {
			return nil, fmt.Errorf("vtkio: line %d: non-finite coordinate at point %d", tr.line, i)
		}
		pts = append(pts, p)
	}
	return pts, nil
}

func finite(p vmath.Vec3) bool {
	for _, v := range [3]float64{p.X, p.Y, p.Z} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func readConn(tr *tokenReader, section string) ([][]int, error) {
	n, err := tr.nextCount(section)
	if err != nil {
		return nil, err
	}
	if _, err := tr.nextInt(); err != nil { // total size, ignored
		return nil, err
	}
	var conn [][]int
	for i := 0; i < n; i++ {
		m, err := tr.nextCount(section + " cell")
		if err != nil {
			return nil, err
		}
		var ids []int
		for j := 0; j < m; j++ {
			id, err := tr.nextInt()
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		conn = append(conn, ids)
	}
	return conn, nil
}

// checkIDs rejects a cell that references a point outside [0, nPts):
// filters and the renderer index point arrays by these ids.
func checkIDs(section string, cell int, ids []int, nPts int) error {
	for _, id := range ids {
		if id < 0 || id >= nPts {
			return fmt.Errorf("vtkio: %s cell %d references point %d of %d", section, cell, id, nPts)
		}
	}
	return nil
}

// readPointData reads a POINT_DATA section whose count must equal the
// dataset's point count.
func readPointData(tr *tokenReader, fs *data.FieldSet, nPts int) error {
	n, err := tr.nextInt()
	if err != nil {
		return err
	}
	if n != nPts {
		return fmt.Errorf("vtkio: POINT_DATA count %d != %d points", n, nPts)
	}
	return readAttributes(tr, fs, n)
}

func readPolyData(tr *tokenReader) (data.Dataset, error) {
	pd := data.NewPolyData()
sections:
	for {
		kw, err := tr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch kw = strings.ToUpper(kw); kw {
		case "POINTS":
			if pd.Pts, err = readPoints(tr); err != nil {
				return nil, err
			}
		case "VERTICES":
			if pd.Verts, err = readConn(tr, kw); err != nil {
				return nil, err
			}
		case "LINES":
			if pd.Lines, err = readConn(tr, kw); err != nil {
				return nil, err
			}
		case "POLYGONS", "TRIANGLE_STRIPS":
			if pd.Polys, err = readConn(tr, kw); err != nil {
				return nil, err
			}
		case "POINT_DATA":
			if err := readPointData(tr, pd.Points, len(pd.Pts)); err != nil {
				return nil, err
			}
			break sections
		default:
			return nil, fmt.Errorf("vtkio: unexpected keyword %q in polydata", kw)
		}
	}
	for _, sec := range []struct {
		name string
		conn [][]int
	}{{"VERTICES", pd.Verts}, {"LINES", pd.Lines}, {"POLYGONS", pd.Polys}} {
		for i, ids := range sec.conn {
			if err := checkIDs(sec.name, i, ids, len(pd.Pts)); err != nil {
				return nil, err
			}
		}
	}
	return pd, nil
}

func readUnstructuredGrid(tr *tokenReader) (data.Dataset, error) {
	ug := data.NewUnstructuredGrid()
	var conn [][]int
sections:
	for {
		kw, err := tr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch strings.ToUpper(kw) {
		case "POINTS":
			if ug.Pts, err = readPoints(tr); err != nil {
				return nil, err
			}
		case "CELLS":
			if conn, err = readConn(tr, "CELLS"); err != nil {
				return nil, err
			}
		case "CELL_TYPES":
			n, err := tr.nextInt()
			if err != nil {
				return nil, err
			}
			if n != len(conn) {
				return nil, fmt.Errorf("vtkio: CELL_TYPES count %d != CELLS count %d", n, len(conn))
			}
			for i := 0; i < n; i++ {
				t, err := tr.nextInt()
				if err != nil {
					return nil, err
				}
				ug.Cells = append(ug.Cells, data.Cell{Type: data.CellType(t), IDs: conn[i]})
			}
		case "POINT_DATA":
			if err := readPointData(tr, ug.Points, len(ug.Pts)); err != nil {
				return nil, err
			}
			break sections
		default:
			return nil, fmt.Errorf("vtkio: unexpected keyword %q in unstructured grid", kw)
		}
	}
	for i, c := range ug.Cells {
		if err := checkIDs("CELLS", i, c.IDs, len(ug.Pts)); err != nil {
			return nil, err
		}
	}
	return ug, nil
}

func readAttributes(tr *tokenReader, fs *data.FieldSet, n int) error {
	for {
		kw, err := tr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch strings.ToUpper(kw) {
		case "SCALARS":
			name, err := tr.next()
			if err != nil {
				return err
			}
			if _, err := tr.next(); err != nil { // data type
				return err
			}
			// Optional numComp then LOOKUP_TABLE.
			tok, err := tr.next()
			if err != nil {
				return err
			}
			comps := 1
			if c, cerr := strconv.Atoi(tok); cerr == nil {
				if c < 1 || c > 4 {
					return fmt.Errorf("vtkio: line %d: SCALARS %s has %d components, want 1-4", tr.line, name, c)
				}
				comps = c
				tok, err = tr.next()
				if err != nil {
					return err
				}
			}
			if strings.ToUpper(tok) != "LOOKUP_TABLE" {
				return fmt.Errorf("vtkio: expected LOOKUP_TABLE after SCALARS %s, got %q", name, tok)
			}
			if _, err := tr.next(); err != nil { // table name
				return err
			}
			vals, err := readFloats(tr, comps*n)
			if err != nil {
				return err
			}
			fs.Add(&data.Field{Name: name, NumComponents: comps, Data: vals})
		case "VECTORS", "NORMALS":
			name, err := tr.next()
			if err != nil {
				return err
			}
			if _, err := tr.next(); err != nil { // data type
				return err
			}
			vals, err := readFloats(tr, 3*n)
			if err != nil {
				return err
			}
			fs.Add(&data.Field{Name: name, NumComponents: 3, Data: vals})
		default:
			return fmt.Errorf("vtkio: unsupported attribute keyword %q", kw)
		}
	}
}

// readFloats reads n numbers, growing the slice as they arrive.
func readFloats(tr *tokenReader, n int) ([]float64, error) {
	var vals []float64
	for i := 0; i < n; i++ {
		v, err := tr.nextFloat()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
