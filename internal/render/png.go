package render

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"image"
	"image/png"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// SavePNG encodes a screenshot with EncodePNG and writes it to the
// given path with WriteFile.
func SavePNG(path string, img *image.RGBA) error {
	var buf bytes.Buffer
	if err := EncodePNG(&buf, img); err != nil {
		return err
	}
	return WriteFile(path, buf.Bytes())
}

// WriteFile writes an encoded screenshot to path in a single Write,
// creating parent directories as needed, and fsyncs it.
func WriteFile(path string, b []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("render: creating output directory: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// pngSignature opens every PNG stream.
const pngSignature = "\x89PNG\r\n\x1a\n"

// pngEncoder holds the state one encode reuses: the finished stream, a
// deflate writer that is Reset rather than rebuilt, and the filtered
// row scratch.
type pngEncoder struct {
	out bytes.Buffer
	zw  *zlib.Writer
	row []byte
}

var pngEncoders = sync.Pool{New: func() any {
	e := &pngEncoder{}
	// BestSpeed is a valid level, so NewWriterLevel cannot fail.
	e.zw, _ = zlib.NewWriterLevel(&e.out, flate.BestSpeed)
	return e
}}

// EncodePNG writes img to w as an 8-bit truecolour PNG in one Write.
// Alpha is dropped: screenshots are opaque (Framebuffer.Image writes
// alpha 255 everywhere). Every row uses the Up filter, so there is no
// per-row filter search, and the image data is deflated at BestSpeed.
// Decoders give back img's RGB exactly.
func EncodePNG(w io.Writer, img *image.RGBA) error {
	b := img.Bounds()
	width, height := b.Dx(), b.Dy()
	if width <= 0 || height <= 0 || int64(width) > math.MaxInt32 || int64(height) > math.MaxInt32 {
		return fmt.Errorf("render: png: invalid image size %dx%d", width, height)
	}
	e := pngEncoders.Get().(*pngEncoder)
	defer pngEncoders.Put(e)
	e.out.Reset()
	e.out.WriteString(pngSignature)

	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(width))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(height))
	ihdr[8] = 8 // bit depth
	ihdr[9] = 2 // colour type: truecolour
	// Compression, filter and interlace methods stay 0.
	e.writeChunk("IHDR", ihdr[:])

	// The IDAT chunk is deflated straight into the output buffer behind
	// a placeholder length, which is patched once the stream is done.
	start := e.out.Len()
	e.out.WriteString("\x00\x00\x00\x00IDAT")
	e.zw.Reset(&e.out)
	if cap(e.row) < 1+3*width {
		e.row = make([]byte, 1+3*width)
	}
	row := e.row[:1+3*width]
	row[0] = 2 // Up: each byte minus the byte above it
	var prev []uint8
	for y := b.Min.Y; y < b.Max.Y; y++ {
		off := img.PixOffset(b.Min.X, y)
		cur := img.Pix[off : off+4*width]
		if prev == nil { // the row above the first is all zeros
			for x, d := 0, 1; x < len(cur); x, d = x+4, d+3 {
				row[d], row[d+1], row[d+2] = cur[x], cur[x+1], cur[x+2]
			}
		} else {
			for x, d := 0, 1; x < len(cur); x, d = x+4, d+3 {
				row[d] = cur[x] - prev[x]
				row[d+1] = cur[x+1] - prev[x+1]
				row[d+2] = cur[x+2] - prev[x+2]
			}
		}
		if _, err := e.zw.Write(row); err != nil {
			return err
		}
		prev = cur
	}
	if err := e.zw.Close(); err != nil {
		return err
	}
	n := e.out.Len() - start - 8
	if n > math.MaxInt32 {
		return errors.New("render: png: compressed image data exceeds one chunk")
	}
	buf := e.out.Bytes()
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[start+4:]))
	e.out.Write(crc[:])

	e.writeChunk("IEND", nil)
	_, err := w.Write(e.out.Bytes())
	return err
}

// writeChunk appends one complete PNG chunk: length, type, data, CRC of
// type and data.
func (e *pngEncoder) writeChunk(typ string, data []byte) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(data)))
	copy(hdr[4:], typ)
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, data)
	e.out.Write(hdr[:])
	e.out.Write(data)
	binary.BigEndian.PutUint32(hdr[:4], crc)
	e.out.Write(hdr[:4])
}

// LoadPNG reads a PNG image from disk.
func LoadPNG(path string) (image.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("render: decoding %s: %w", path, err)
	}
	return img, nil
}
