package pvsim

import (
	"path/filepath"

	"chatvis/internal/render"
)

// A ScreenshotSink receives each screenshot an engine saves as a PNG
// buffer valid only during the call, under its confined file name, and
// returns the reference the engine records in Screenshots and Rendered.
type ScreenshotSink interface {
	PutScreenshot(name string, png []byte) (ref string, err error)
}

// DirSink writes screenshots as fsynced files under a directory; a
// screenshot's reference is its file path.
type DirSink string

func (d DirSink) PutScreenshot(name string, png []byte) (string, error) {
	path := filepath.Join(string(d), name)
	return path, render.WriteFile(path, png)
}

// localName checks a file name taken from a script against the root
// directory it is read from or written to, and returns it cleaned.
// Scripts are LLM output, so an absolute name, or one that still leaves
// the root once cleaned, is refused with a RuntimeError the repair loop
// can act on. fn names the refusing call and root the directory.
func localName(fn, root, name string) (string, error) {
	if !filepath.IsLocal(name) {
		return "", raiseRT("%s: file name %q resolves outside the %s directory", fn, name, root)
	}
	return filepath.Clean(name), nil
}

// pngWriter passes the one buffer render.EncodePNG writes to a func.
type pngWriter func(png []byte) error

func (f pngWriter) Write(png []byte) (int, error) {
	if err := f(png); err != nil {
		return 0, err
	}
	return len(png), nil
}
