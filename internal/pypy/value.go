package pypy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Value is any Python runtime value.
type Value interface {
	// Type returns the Python type name used in error messages.
	Type() string
	// Repr returns the Python repr()-style rendering.
	Repr() string
}

// None is the singleton None value.
type NoneValue struct{}

// Type implements Value.
func (NoneValue) Type() string { return "NoneType" }

// Repr implements Value.
func (NoneValue) Repr() string { return "None" }

// None is the shared None instance.
var None = NoneValue{}

// Bool is a Python bool.
type Bool bool

// Type implements Value.
func (Bool) Type() string { return "bool" }

// Repr implements Value.
func (b Bool) Repr() string {
	if b {
		return "True"
	}
	return "False"
}

// Int is a Python int.
type Int int64

// Type implements Value.
func (Int) Type() string { return "int" }

// Repr implements Value.
func (i Int) Repr() string { return strconv.FormatInt(int64(i), 10) }

// Float is a Python float.
type Float float64

// Type implements Value.
func (Float) Type() string { return "float" }

// Repr implements Value.
func (f Float) Repr() string {
	v := float64(f)
	if v == math.Trunc(v) && math.Abs(v) < 1e16 && !math.IsInf(v, 0) {
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Str is a Python str.
type Str string

// Type implements Value.
func (Str) Type() string { return "str" }

// Repr implements Value.
func (s Str) Repr() string { return "'" + strings.ReplaceAll(string(s), "'", "\\'") + "'" }

// List is a Python list.
type List struct{ Items []Value }

// Type implements Value.
func (*List) Type() string { return "list" }

// Repr implements Value.
func (l *List) Repr() string { return reprOf(l) }

// Tuple is a Python tuple.
type Tuple struct{ Items []Value }

// Type implements Value.
func (*Tuple) Type() string { return "tuple" }

// Repr implements Value.
func (t *Tuple) Repr() string { return reprOf(t) }

// Dict is a Python dict with string-convertible keys.
type Dict struct {
	keys   []string
	values map[string]Value
}

// NewDict returns an empty dict.
func NewDict() *Dict { return &Dict{values: map[string]Value{}} }

// Type implements Value.
func (*Dict) Type() string { return "dict" }

// Repr implements Value.
func (d *Dict) Repr() string { return reprOf(d) }

// reprLimit bounds the text one repr writes: a list can hold itself, or
// hold one sublist many times over at every level.
const reprLimit = 1 << 20

// reprOf renders a container as Python does: one that holds itself
// shows as [...], and the text stops with ... past reprLimit.
func reprOf(v Value) string {
	var b strings.Builder
	writeRepr(&b, v, nil)
	return b.String()
}

// writeRepr writes v's repr; open lists the containers being written.
func writeRepr(b *strings.Builder, v Value, open []Value) {
	var keys []string
	var items []Value
	brackets := "[]"
	switch t := v.(type) {
	case *List:
		items = t.Items
	case *Tuple:
		items, brackets = t.Items, "()"
	case *Dict:
		keys, brackets = t.keys, "{}"
		for _, k := range keys {
			items = append(items, t.values[k])
		}
	default:
		b.WriteString(v.Repr())
		return
	}
	for _, o := range open {
		if o == v {
			b.WriteString(brackets[:1] + "..." + brackets[1:])
			return
		}
	}
	b.WriteString(brackets[:1])
	for i, it := range items {
		if b.Len() > reprLimit {
			b.WriteString("...")
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		if keys != nil {
			b.WriteString(Str(keys[i]).Repr() + ": ")
		}
		writeRepr(b, it, append(open, v))
	}
	if len(items) == 1 && brackets == "()" {
		b.WriteString(",")
	}
	b.WriteString(brackets[1:])
}

// Set stores a key.
func (d *Dict) Set(key string, v Value) {
	if _, ok := d.values[key]; !ok {
		d.keys = append(d.keys, key)
	}
	d.values[key] = v
}

// Get retrieves a key.
func (d *Dict) Get(key string) (Value, bool) {
	v, ok := d.values[key]
	return v, ok
}

// Keys returns keys in insertion order.
func (d *Dict) Keys() []string { return d.keys }

// Func is a user-defined Python function.
type Func struct {
	Name     string
	Params   []string
	Defaults []Value
	Body     []Stmt
	Globals  *Env
}

// Type implements Value.
func (*Func) Type() string { return "function" }

// Repr implements Value.
func (f *Func) Repr() string { return "<function " + f.Name + ">" }

// NativeFunc is a Go-implemented callable exposed to scripts.
type NativeFunc struct {
	Name string
	Fn   func(in *Interp, args []Value, kwargs map[string]Value) (Value, error)
}

// Type implements Value.
func (*NativeFunc) Type() string { return "builtin_function_or_method" }

// Repr implements Value.
func (f *NativeFunc) Repr() string { return "<built-in function " + f.Name + ">" }

// Object is the host-object bridge: the ParaView proxy layer implements it
// so scripts can get/set proxy properties with Python attribute syntax.
type Object interface {
	Value
	// GetAttr fetches an attribute; return a *PyError with type
	// "AttributeError" for unknown names.
	GetAttr(name string) (Value, error)
	// SetAttr assigns an attribute.
	SetAttr(name string, v Value) error
}

// ModuleVal is an importable module namespace. (The name avoids clashing
// with the AST's Module node.)
type ModuleVal struct {
	Name  string
	Attrs map[string]Value
}

// Type implements Value.
func (*ModuleVal) Type() string { return "module" }

// Repr implements Value.
func (m *ModuleVal) Repr() string { return "<module '" + m.Name + "'>" }

// GetAttr implements attribute access on modules.
func (m *ModuleVal) GetAttr(name string) (Value, error) {
	if v, ok := m.Attrs[name]; ok {
		return v, nil
	}
	return nil, &PyError{
		Kind: "AttributeError",
		Msg:  fmt.Sprintf("module '%s' has no attribute '%s'", m.Name, name),
	}
}

// SetAttr implements attribute assignment on modules.
func (m *ModuleVal) SetAttr(name string, v Value) error {
	m.Attrs[name] = v
	return nil
}

// SortedAttrNames lists public attribute names, for `import *`.
func (m *ModuleVal) SortedAttrNames() []string {
	names := make([]string, 0, len(m.Attrs))
	for k := range m.Attrs {
		if !strings.HasPrefix(k, "_") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// Truthy implements Python truthiness.
func Truthy(v Value) bool {
	switch t := v.(type) {
	case NoneValue:
		return false
	case Bool:
		return bool(t)
	case Int:
		return t != 0
	case Float:
		return t != 0
	case Str:
		return t != ""
	case *List:
		return len(t.Items) > 0
	case *Tuple:
		return len(t.Items) > 0
	case *Dict:
		return len(t.keys) > 0
	}
	return true
}

// AsFloat converts numeric values to float64.
func AsFloat(v Value) (float64, bool) {
	switch t := v.(type) {
	case Int:
		return float64(t), true
	case Float:
		return float64(t), true
	case Bool:
		if t {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// AsInt converts integral values to int64.
func AsInt(v Value) (int64, bool) {
	switch t := v.(type) {
	case Int:
		return int64(t), true
	case Bool:
		if t {
			return 1, true
		}
		return 0, true
	case Float:
		if float64(t) == math.Trunc(float64(t)) {
			return int64(t), true
		}
	}
	return 0, false
}

// Format renders a value like Python's str(): strings are unquoted,
// everything else uses Repr.
func Format(v Value) string {
	if s, ok := v.(Str); ok {
		return string(s)
	}
	return v.Repr()
}
