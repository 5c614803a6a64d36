package vtkio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"chatvis/internal/data"
	"chatvis/internal/vmath"
)

// Simulated Exodus-II container.
//
// Real Exodus-II files are NetCDF; implementing NetCDF is out of scope and
// irrelevant to the agent loop, so we define a compact self-describing
// binary with the Exodus concepts the experiments need: a title, nodal
// coordinates, element blocks (cells), and named nodal variables. The
// reader proxy in the ParaView simulation (`ExodusIIReader`) consumes this
// format transparently.
//
// Layout (little endian):
//
//	magic   [4]byte "SEX2"
//	version uint32 (currently 1)
//	title   string (uint32 length + bytes)
//	nPts    uint32, then nPts * 3 float64 coordinates
//	nCells  uint32, then per cell: uint8 vtk cell type, uint8 nIds, ids uint32
//	nVars   uint32, then per var: name string, uint8 comps, comps*nPts float64

const (
	exodusMagic   = "SEX2"
	exodusVersion = 1
	// exodusPrealloc caps the capacity a header count can reserve up
	// front (points or field values); longer arrays grow by append.
	exodusPrealloc = 1 << 12
)

// WriteExodus writes an unstructured grid to w in the simulated Exodus-II
// format.
func WriteExodus(w io.Writer, ug *data.UnstructuredGrid, title string) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(exodusMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU32 := func(v uint32) error { return binary.Write(bw, le, v) }
	writeStr := func(s string) error {
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeU32(exodusVersion); err != nil {
		return err
	}
	if err := writeStr(title); err != nil {
		return err
	}
	if err := writeU32(uint32(len(ug.Pts))); err != nil {
		return err
	}
	for _, p := range ug.Pts {
		for _, v := range []float64{p.X, p.Y, p.Z} {
			if err := binary.Write(bw, le, v); err != nil {
				return err
			}
		}
	}
	if err := writeU32(uint32(len(ug.Cells))); err != nil {
		return err
	}
	for _, c := range ug.Cells {
		if len(c.IDs) > 255 {
			return fmt.Errorf("vtkio: cell with %d points exceeds format limit", len(c.IDs))
		}
		if err := bw.WriteByte(byte(c.Type)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(len(c.IDs))); err != nil {
			return err
		}
		for _, id := range c.IDs {
			if err := writeU32(uint32(id)); err != nil {
				return err
			}
		}
	}
	pd := ug.Points
	if err := writeU32(uint32(pd.Len())); err != nil {
		return err
	}
	for i := 0; i < pd.Len(); i++ {
		f := pd.At(i)
		if err := writeStr(f.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(f.NumComponents)); err != nil {
			return err
		}
		for _, v := range f.Data {
			if err := binary.Write(bw, le, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveExodus writes ug to the named file.
func SaveExodus(path string, ug *data.UnstructuredGrid, title string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteExodus(f, ug, title); err != nil {
		return err
	}
	return f.Sync()
}

// ReadExodus parses a simulated Exodus-II stream.
func ReadExodus(r io.Reader) (*data.UnstructuredGrid, string, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, "", fmt.Errorf("vtkio: reading exodus magic: %w", err)
	}
	if string(magic) != exodusMagic {
		return nil, "", fmt.Errorf("vtkio: not a simulated Exodus-II file (magic %q)", magic)
	}
	le := binary.LittleEndian
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, le, &v)
		return v, err
	}
	readF64 := func() (float64, error) {
		var v float64
		err := binary.Read(br, le, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("vtkio: unreasonable string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	ver, err := readU32()
	if err != nil {
		return nil, "", err
	}
	if ver != exodusVersion {
		return nil, "", fmt.Errorf("vtkio: unsupported exodus version %d", ver)
	}
	title, err := readStr()
	if err != nil {
		return nil, "", err
	}
	nPts, err := readU32()
	if err != nil {
		return nil, "", err
	}
	// Header counts are never trusted as allocation sizes: a hostile
	// header may declare billions of points in a few bytes. Slices start
	// at a bounded capacity and grow by append as values actually arrive.
	ug := data.NewUnstructuredGrid()
	ug.Pts = make([]vmath.Vec3, 0, min(nPts, exodusPrealloc))
	for i := uint32(0); i < nPts; i++ {
		var p vmath.Vec3
		if p.X, err = readF64(); err != nil {
			return nil, "", err
		}
		if p.Y, err = readF64(); err != nil {
			return nil, "", err
		}
		if p.Z, err = readF64(); err != nil {
			return nil, "", err
		}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) {
			return nil, "", fmt.Errorf("vtkio: NaN coordinate at point %d", i)
		}
		ug.Pts = append(ug.Pts, p)
	}
	nCells, err := readU32()
	if err != nil {
		return nil, "", err
	}
	for i := uint32(0); i < nCells; i++ {
		ctype, err := br.ReadByte()
		if err != nil {
			return nil, "", err
		}
		nIds, err := br.ReadByte()
		if err != nil {
			return nil, "", err
		}
		ids := make([]int, nIds)
		for j := range ids {
			v, err := readU32()
			if err != nil {
				return nil, "", err
			}
			if v >= nPts {
				return nil, "", fmt.Errorf("vtkio: cell %d references point %d of %d", i, v, nPts)
			}
			ids[j] = int(v)
		}
		ug.Cells = append(ug.Cells, data.Cell{Type: data.CellType(ctype), IDs: ids})
	}
	nVars, err := readU32()
	if err != nil {
		return nil, "", err
	}
	for i := uint32(0); i < nVars; i++ {
		name, err := readStr()
		if err != nil {
			return nil, "", err
		}
		comps, err := br.ReadByte()
		if err != nil {
			return nil, "", err
		}
		if comps == 0 {
			return nil, "", fmt.Errorf("vtkio: variable %q has no components", name)
		}
		n := uint64(comps) * uint64(nPts)
		f := &data.Field{Name: name, NumComponents: int(comps), Data: make([]float64, 0, min(n, exodusPrealloc))}
		for j := uint64(0); j < n; j++ {
			v, err := readF64()
			if err != nil {
				return nil, "", err
			}
			f.Data = append(f.Data, v)
		}
		ug.Points.Add(f)
	}
	return ug, title, nil
}

// LoadExodus reads a simulated Exodus-II file from disk.
func LoadExodus(path string) (*data.UnstructuredGrid, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return ReadExodus(f)
}
