// Package pvsim simulates ParaView's server manager: proxy objects with
// validated property sets, a lazy visualization pipeline executing the
// algorithms in internal/filters, render views backed by internal/render,
// and the paraview.simple function surface that generated Python scripts
// call.
//
// Fidelity matters here: scripts touching properties that do not exist on
// a proxy class must raise AttributeError with the proxy class name —
// that is precisely the failure mode of unassisted LLM scripts that the
// paper documents (e.g. Glyph.Scalars, Clip.InsideOut, view.ViewUp).
package pvsim

import (
	"fmt"
	"sort"
	"sync"

	"chatvis/internal/data"
	"chatvis/internal/plan"
	"chatvis/internal/pypy"
)

// proxyKind classifies proxies.
type proxyKind int

const (
	kindSource proxyKind = iota
	kindFilter
	kindView
	kindRepresentation
	kindHelper // nested property objects (Plane, Point Cloud seed, camera)
	kindLayout
	kindTransferFunction
)

// PropSpec declares one settable property of a proxy class.
type PropSpec struct {
	// Default is the initial value (cloned per instance).
	Default func() pypy.Value
}

// classSchema declares a proxy class: its properties and methods.
type classSchema struct {
	name    string
	kind    proxyKind
	props   map[string]PropSpec
	methods map[string]methodFn
}

// methodFn implements a proxy method.
type methodFn func(e *Engine, p *Proxy, args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error)

// Proxy is one server-manager object: class + property bag. It implements
// pypy.Object so scripts manipulate it with attribute syntax.
type Proxy struct {
	Class   *classSchema
	RegName string
	Props   map[string]pypy.Value
	Engine  *Engine

	// Pipeline state for sources/filters. mu serializes computation of
	// this proxy's dataset so independent DAG branches can execute
	// concurrently while a shared upstream stage runs exactly once
	// (lock order follows Input edges, which form a DAG — no cycles).
	Input   *Proxy
	mu      sync.Mutex
	dataset data.Dataset
	key     string // DataCache key of dataset; "" when uncached
	dirty   bool

	// Representation state.
	repOf   *Proxy // the pipeline proxy this representation displays
	repView *Proxy // the view it belongs to
}

// Type implements pypy.Value (the Python type name of the proxy).
func (p *Proxy) Type() string { return p.Class.name }

// Repr implements pypy.Value.
func (p *Proxy) Repr() string {
	if p.RegName != "" {
		return fmt.Sprintf("<paraview.%s '%s'>", p.Class.name, p.RegName)
	}
	return fmt.Sprintf("<paraview.%s>", p.Class.name)
}

// GetAttr implements pypy.Object: property reads and bound methods.
func (p *Proxy) GetAttr(name string) (pypy.Value, error) {
	if v, ok := p.Props[name]; ok {
		return v, nil
	}
	if m, ok := p.Class.methods[name]; ok {
		fn := m
		self := p
		return &pypy.NativeFunc{Name: name, Fn: func(_ *pypy.Interp, args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
			return fn(self.Engine, self, args, kwargs)
		}}, nil
	}
	return nil, &pypy.PyError{
		Kind: "AttributeError",
		Msg:  fmt.Sprintf("'%s' object has no attribute '%s'", p.Class.name, name),
	}
}

// SetAttr implements pypy.Object: validated property writes. Unknown
// properties raise AttributeError exactly like live ParaView proxies.
func (p *Proxy) SetAttr(name string, v pypy.Value) error {
	if _, ok := p.Class.props[name]; !ok {
		return &pypy.PyError{
			Kind: "AttributeError",
			Msg:  fmt.Sprintf("'%s' object has no attribute '%s'", p.Class.name, name),
		}
	}
	p.Props[name] = v
	p.markDirty()
	return nil
}

// markDirty invalidates this proxy's computed dataset and every dependent
// filter's.
func (p *Proxy) markDirty() {
	p.dirty = true
	if p.Engine == nil {
		return
	}
	for _, other := range p.Engine.Pipeline {
		if other.Input == p {
			other.markDirty()
		}
	}
}

// PropNames lists the proxy's property names, sorted (used by help-style
// output and tests).
func (p *Proxy) PropNames() []string {
	names := make([]string, 0, len(p.Class.props))
	for k := range p.Class.props {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// newProxy instantiates a class with default property values.
func (e *Engine) newProxy(schema *classSchema) *Proxy {
	p := &Proxy{
		Class:  schema,
		Props:  make(map[string]pypy.Value, len(schema.props)),
		Engine: e,
		dirty:  true,
	}
	for name, spec := range schema.props {
		if spec.Default != nil {
			p.Props[name] = spec.Default()
		} else {
			p.Props[name] = pypy.None
		}
	}
	return p
}

// Helpers to read typed property values.

// newPipelineProxy builds a source or filter proxy with the helper
// proxies paraview.simple constructors attach implicitly.
func (e *Engine) newPipelineProxy(schema *classSchema) *Proxy {
	p := e.newProxy(schema)
	for prop, helper := range plan.HelperDefaults[schema.name] {
		p.Props[prop] = e.newProxy(e.schema(helper))
	}
	return p
}

func propStr(p *Proxy, name string) string {
	if v, ok := p.Props[name]; ok {
		if s, ok := v.(pypy.Str); ok {
			return string(s)
		}
	}
	return ""
}

func propFloat(p *Proxy, name string, def float64) float64 {
	if v, ok := p.Props[name]; ok {
		if f, ok := pypy.AsFloat(v); ok {
			return f
		}
	}
	return def
}

func propInt(p *Proxy, name string, def int64) int64 {
	if v, ok := p.Props[name]; ok {
		if n, ok := pypy.AsInt(v); ok {
			return n
		}
	}
	return def
}

func propBool(p *Proxy, name string, def bool) bool {
	if v, ok := p.Props[name]; ok {
		switch t := v.(type) {
		case pypy.Bool:
			return bool(t)
		case pypy.Int:
			return t != 0
		case pypy.Float:
			return t != 0
		}
	}
	return def
}

// propFloats extracts a list/tuple of numbers.
func propFloats(p *Proxy, name string) []float64 {
	v, ok := p.Props[name]
	if !ok {
		return nil
	}
	return valueFloats(v)
}

func valueFloats(v pypy.Value) []float64 {
	var items []pypy.Value
	switch t := v.(type) {
	case *pypy.List:
		items = t.Items
	case *pypy.Tuple:
		items = t.Items
	default:
		if f, ok := pypy.AsFloat(v); ok {
			return []float64{f}
		}
		return nil
	}
	out := make([]float64, 0, len(items))
	for _, it := range items {
		if f, ok := pypy.AsFloat(it); ok {
			out = append(out, f)
		}
	}
	return out
}

// propAssoc extracts ParaView's ('POINTS', 'name') association pairs,
// tolerating a bare string.
func propAssoc(p *Proxy, name string) (assoc, array string) {
	v, ok := p.Props[name]
	if !ok {
		return "", ""
	}
	return valueAssoc(v)
}

func valueAssoc(v pypy.Value) (assoc, array string) {
	switch t := v.(type) {
	case pypy.Str:
		return "POINTS", string(t)
	case *pypy.List:
		return assocFromItems(t.Items)
	case *pypy.Tuple:
		return assocFromItems(t.Items)
	}
	return "", ""
}

func assocFromItems(items []pypy.Value) (string, string) {
	if len(items) == 1 {
		if s, ok := items[0].(pypy.Str); ok {
			return "POINTS", string(s)
		}
	}
	if len(items) >= 2 {
		a, _ := items[0].(pypy.Str)
		b, _ := items[1].(pypy.Str)
		return string(a), string(b)
	}
	return "", ""
}

func listOf(vals ...float64) pypy.Value {
	items := make([]pypy.Value, len(vals))
	for i, v := range vals {
		items[i] = pypy.Float(v)
	}
	return &pypy.List{Items: items}
}

func strList(vals ...string) pypy.Value {
	items := make([]pypy.Value, len(vals))
	for i, v := range vals {
		items[i] = pypy.Str(v)
	}
	return &pypy.List{Items: items}
}
