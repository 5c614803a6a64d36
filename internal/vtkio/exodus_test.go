package vtkio

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"chatvis/internal/datagen"
	"chatvis/internal/filters"
)

// exodusHeader is a minimal header: magic, version, empty title and a
// declared point count, with no point data after it.
func exodusHeader(nPts uint32) []byte {
	b := []byte(exodusMagic)
	b = binary.LittleEndian.AppendUint32(b, exodusVersion)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return binary.LittleEndian.AppendUint32(b, nPts)
}

// TestReadExodusHostileCountAllocatesLittle: a 16-byte file declaring
// ten million points must fail on the missing data without reserving
// memory for the declared count.
func TestReadExodusHostileCountAllocatesLittle(t *testing.T) {
	src := exodusHeader(10_000_000)
	if len(src) != 16 {
		t.Fatalf("header is %d bytes, want 16", len(src))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadExodus(bytes.NewReader(src))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("read of a truncated file succeeded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("read allocated %d bytes for a 16-byte input", alloc)
	}
}

// FuzzReadExodus feeds arbitrary bytes to the Exodus-II reader. It must
// not panic, and a grid it accepts must be safe to index: every cell id
// names a point, every point field has one full tuple per point, and its
// render surface can be extracted.
func FuzzReadExodus(f *testing.F) {
	var buf bytes.Buffer // the DataSmall disk dataset
	if err := WriteExodus(&buf, datagen.DiskFlow(6, 24, 6), "seed"); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(exodusHeader(1 << 30))
	f.Fuzz(func(t *testing.T, src []byte) {
		ug, _, err := ReadExodus(bytes.NewReader(src))
		if err != nil {
			return
		}
		n := ug.NumPoints()
		for _, c := range ug.Cells {
			for _, id := range c.IDs {
				if id < 0 || id >= n {
					t.Fatalf("accepted id %d of %d points", id, n)
				}
			}
		}
		pd := ug.PointData()
		for i := 0; i < pd.Len(); i++ {
			if fl := pd.At(i); fl.NumComponents < 1 || len(fl.Data) != fl.NumComponents*n {
				t.Fatalf("field %q: %d values, %d components, %d points", fl.Name, len(fl.Data), fl.NumComponents, n)
			}
		}
		filters.ExtractSurface(ug)
	})
}
