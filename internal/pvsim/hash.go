package pvsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"chatvis/internal/pypy"
)

// contentKey returns a stable content hash identifying the output
// dataset of a pipeline proxy: its class, its canonicalized property
// bag, its input's key (recursively), and — for readers — the identity
// of the file on disk (resolved path, size, mtime). Two proxies with
// the same key compute bit-identical datasets, so the key addresses the
// process-wide dataset cache: a repair iteration that re-runs a script
// with one parameter tweaked only recomputes the stages downstream of
// the tweak, and concurrent jobs reading the same file share one parse.
//
// An error means the proxy is not cacheable (an unhashable property
// value, or a reader whose file cannot be stat'ed); the caller falls
// back to direct computation.
func (e *Engine) contentKey(p *Proxy) (string, error) {
	h := sha256.New()
	if err := e.writeProxyKey(h, p); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (e *Engine) writeProxyKey(w io.Writer, p *Proxy) error {
	fmt.Fprintf(w, "class=%s;", p.Class.name)
	switch p.Class.name {
	case "LegacyVTKReader", "ExodusIIReader":
		file := readerFileName(p)
		if file == "" {
			return fmt.Errorf("pvsim: reader has no file name")
		}
		path, err := e.resolveData(p.Class.name, file)
		if err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("pvsim: stat %s: %w", path, err)
		}
		fmt.Fprintf(w, "file=%s|%d|%d;", path, info.Size(), info.ModTime().UnixNano())
	}
	if p.Input != nil {
		io.WriteString(w, "input{")
		if err := e.writeProxyKey(w, p.Input); err != nil {
			return err
		}
		io.WriteString(w, "};")
	}
	names := make([]string, 0, len(p.Props))
	for name := range p.Props {
		// The registration name is cosmetic and Input is keyed above.
		if name == "registrationName" || name == "Input" {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s=", name)
		if err := e.writeValueKey(w, p.Props[name]); err != nil {
			return err
		}
		io.WriteString(w, ";")
	}
	return nil
}

func (e *Engine) writeValueKey(w io.Writer, v pypy.Value) error {
	switch t := v.(type) {
	case nil, pypy.NoneValue:
		io.WriteString(w, "none")
	case pypy.Str:
		fmt.Fprintf(w, "s%q", string(t))
	case pypy.Int:
		fmt.Fprintf(w, "i%d", int64(t))
	case pypy.Float:
		// Numbers that compare equal key equal, whichever path (script
		// or plan) built the proxy; the hex bits keep other keys exact.
		if f := float64(t); f == math.Trunc(f) && math.Abs(f) < 1<<62 {
			fmt.Fprintf(w, "i%d", int64(f))
			break
		}
		fmt.Fprintf(w, "f%x", math.Float64bits(float64(t)))
	case pypy.Bool:
		fmt.Fprintf(w, "b%v", bool(t))
	case *pypy.List:
		io.WriteString(w, "[")
		for _, it := range t.Items {
			if err := e.writeValueKey(w, it); err != nil {
				return err
			}
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case *pypy.Tuple:
		io.WriteString(w, "(")
		for _, it := range t.Items {
			if err := e.writeValueKey(w, it); err != nil {
				return err
			}
			io.WriteString(w, ",")
		}
		io.WriteString(w, ")")
	case *Proxy:
		// Nested helper proxies (Plane, Point Cloud, Transform helper).
		io.WriteString(w, "proxy{")
		if err := e.writeProxyKey(w, t); err != nil {
			return err
		}
		io.WriteString(w, "}")
	default:
		return fmt.Errorf("pvsim: unhashable property value of type %s", v.Type())
	}
	return nil
}

// readerFileName extracts the configured input file of a reader proxy.
func readerFileName(p *Proxy) string {
	switch p.Class.name {
	case "LegacyVTKReader":
		switch t := p.Props["FileNames"].(type) {
		case *pypy.List:
			if len(t.Items) > 0 {
				if s, ok := t.Items[0].(pypy.Str); ok {
					return string(s)
				}
			}
		case pypy.Str:
			return string(t)
		}
	case "ExodusIIReader":
		if s := propStr(p, "FileName"); s != "" {
			return s
		}
		if v, ok := p.Props["FileName"].(*pypy.List); ok && len(v.Items) > 0 {
			if s, ok := v.Items[0].(pypy.Str); ok {
				return string(s)
			}
		}
	}
	return ""
}
