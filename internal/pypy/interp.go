package pypy

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// PyError is a Python runtime exception: a kind ("AttributeError",
// "NameError", "TypeError", ...), a message, and the script line where it
// was raised.
type PyError struct {
	Kind string
	Msg  string
	Line int
	// Cause is the underlying Go error the exception wraps (a filter
	// failure, a context cancellation, ...). Keeping the chain intact
	// lets callers — notably the dataset cache's singleflight retry —
	// see through the Python-shaped wrapper with errors.Is.
	Cause error
}

// Error implements the error interface.
func (e *PyError) Error() string { return e.Kind + ": " + e.Msg }

// Unwrap exposes the wrapped cause to errors.Is/As.
func (e *PyError) Unwrap() error { return e.Cause }

// Traceback renders the CPython-style traceback text that PvPython prints
// to stderr, which the paper's extraction tool parses.
func (e *PyError) Traceback(file string, srcLine string) string {
	var b strings.Builder
	b.WriteString("Traceback (most recent call last):\n")
	fmt.Fprintf(&b, "  File \"%s\", line %d, in <module>\n", file, e.Line)
	if s := strings.TrimSpace(srcLine); s != "" {
		fmt.Fprintf(&b, "    %s\n", s)
	}
	fmt.Fprintf(&b, "%s: %s", e.Kind, e.Msg)
	return b.String()
}

// Env is a lexical scope.
type Env struct {
	vars   map[string]Value
	parent *Env
}

// NewEnv creates a scope with an optional parent.
func NewEnv(parent *Env) *Env {
	return &Env{vars: map[string]Value{}, parent: parent}
}

// Get resolves a name through the scope chain.
func (e *Env) Get(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Set binds a name in this scope.
func (e *Env) Set(name string, v Value) { e.vars[name] = v }

// Names returns the names bound directly in this scope, sorted.
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.vars))
	for k := range e.vars {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// control-flow signals used internally by the evaluator.
type breakSignal struct{}
type continueSignal struct{}
type returnSignal struct{ v Value }

func (breakSignal) Error() string    { return "break" }
func (continueSignal) Error() string { return "continue" }
func (returnSignal) Error() string   { return "return" }

// Interp executes parsed modules.
type Interp struct {
	// Stdout receives print() output.
	Stdout io.Writer
	// Modules maps dotted module paths to importable namespaces. The
	// pvpython layer registers "paraview" and "paraview.simple" here.
	Modules map[string]*ModuleVal
	// Globals is the module-level scope of the running script.
	Globals *Env
	// File is the script name used in tracebacks.
	File string
	// MaxSteps bounds total statement executions to stop runaway loops.
	MaxSteps int

	steps int
	lines []string
	// callLine is the line of the innermost native call in progress.
	callLine int
}

// NewInterp builds an interpreter writing print output to stdout.
func NewInterp(stdout io.Writer) *Interp {
	in := &Interp{
		Stdout:   stdout,
		Modules:  map[string]*ModuleVal{},
		Globals:  NewEnv(nil),
		File:     "script.py",
		MaxSteps: 5_000_000,
	}
	registerBuiltins(in.Globals)
	return in
}

// RegisterModule makes a module importable under its dotted path,
// creating parent package entries as needed.
func (in *Interp) RegisterModule(m *ModuleVal) {
	in.Modules[m.Name] = m
	// Ensure parent packages exist so `import paraview.simple` binds
	// `paraview` with a `simple` attribute.
	parts := strings.Split(m.Name, ".")
	for i := len(parts) - 1; i >= 1; i-- {
		parentName := strings.Join(parts[:i], ".")
		parent, ok := in.Modules[parentName]
		if !ok {
			parent = &ModuleVal{Name: parentName, Attrs: map[string]Value{}}
			in.Modules[parentName] = parent
		}
		child := in.Modules[strings.Join(parts[:i+1], ".")]
		parent.Attrs[parts[i]] = child
	}
}

// Run parses and executes src. The returned error is either a
// *SyntaxError (parse time) or a *PyError (run time); nil on success.
func (in *Interp) Run(src string) error {
	mod, err := Parse(in.File, src)
	if err != nil {
		return err
	}
	in.lines = strings.Split(src, "\n")
	in.steps = 0
	return in.execBlock(mod.Body, in.Globals)
}

// CallLine returns the script line of the native function call in
// progress, for host functions that record where they were called.
func (in *Interp) CallLine() int { return in.callLine }

// SourceLine returns the 1-based source line text for tracebacks.
func (in *Interp) SourceLine(n int) string {
	if n-1 >= 0 && n-1 < len(in.lines) {
		return in.lines[n-1]
	}
	return ""
}

func (in *Interp) raise(line int, kind, format string, args ...interface{}) error {
	return &PyError{Kind: kind, Msg: fmt.Sprintf(format, args...), Line: line}
}

func (in *Interp) execBlock(stmts []Stmt, env *Env) error {
	for _, st := range stmts {
		if err := in.exec(st, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) exec(st Stmt, env *Env) error {
	in.steps++
	if in.steps > in.MaxSteps {
		return in.raise(st.Line(), "RuntimeError", "maximum execution steps exceeded")
	}
	switch s := st.(type) {
	case *ExprStmt:
		_, err := in.eval(s.X, env)
		return err
	case *Assign:
		v, err := in.eval(s.Value, env)
		if err != nil {
			return err
		}
		for _, tgt := range s.Targets {
			if err := in.assign(tgt, v, env); err != nil {
				return err
			}
		}
		return nil
	case *AugAssign:
		cur, err := in.eval(s.Target, env)
		if err != nil {
			return err
		}
		rhs, err := in.eval(s.Value, env)
		if err != nil {
			return err
		}
		nv, err := in.binop(s.Line(), s.Op, cur, rhs)
		if err != nil {
			return err
		}
		return in.assign(s.Target, nv, env)
	case *If:
		cond, err := in.eval(s.Cond, env)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return in.execBlock(s.Body, env)
		}
		return in.execBlock(s.Else, env)
	case *While:
		for {
			cond, err := in.eval(s.Cond, env)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				return nil
			}
			if err := in.execBlock(s.Body, env); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil
				case continueSignal:
					continue
				}
				return err
			}
			in.steps++
			if in.steps > in.MaxSteps {
				return in.raise(s.Line(), "RuntimeError", "maximum execution steps exceeded")
			}
		}
	case *For:
		iter, err := in.eval(s.Iter, env)
		if err != nil {
			return err
		}
		items, err := iterate(iter)
		if err != nil {
			return in.raise(s.Line(), "TypeError", "%s", err.Error())
		}
		for _, item := range items {
			if err := in.assign(s.Target, item, env); err != nil {
				return err
			}
			if err := in.execBlock(s.Body, env); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil
				case continueSignal:
					continue
				}
				return err
			}
		}
		return nil
	case *FuncDef:
		defaults := make([]Value, len(s.Defaults))
		for i, d := range s.Defaults {
			v, err := in.eval(d, env)
			if err != nil {
				return err
			}
			defaults[i] = v
		}
		env.Set(s.Name, &Func{
			Name: s.Name, Params: s.Params, Defaults: defaults,
			Body: s.Body, Globals: in.Globals,
		})
		return nil
	case *Return:
		var v Value = None
		if s.Value != nil {
			var err error
			v, err = in.eval(s.Value, env)
			if err != nil {
				return err
			}
		}
		return returnSignal{v}
	case *Pass:
		return nil
	case *Break:
		return breakSignal{}
	case *Continue:
		return continueSignal{}
	case *Import:
		mod, ok := in.Modules[s.Module]
		if !ok {
			return in.raise(s.Line(), "ModuleNotFoundError", "No module named '%s'", s.Module)
		}
		name := s.Alias
		if name == "" {
			// `import a.b` binds `a`.
			root := strings.Split(s.Module, ".")[0]
			rm, ok := in.Modules[root]
			if !ok {
				rm = mod
			}
			env.Set(root, rm)
			return nil
		}
		env.Set(name, mod)
		return nil
	case *FromImport:
		mod, ok := in.Modules[s.Module]
		if !ok {
			return in.raise(s.Line(), "ModuleNotFoundError", "No module named '%s'", s.Module)
		}
		if s.Star {
			for _, name := range mod.SortedAttrNames() {
				env.Set(name, mod.Attrs[name])
			}
			return nil
		}
		for _, spec := range s.Names {
			src, dst := spec, spec
			if i := strings.Index(spec, " as "); i >= 0 {
				src, dst = spec[:i], spec[i+4:]
			}
			v, ok := mod.Attrs[src]
			if !ok {
				return in.raise(s.Line(), "ImportError",
					"cannot import name '%s' from '%s'", src, s.Module)
			}
			env.Set(dst, v)
		}
		return nil
	}
	return in.raise(st.Line(), "RuntimeError", "unhandled statement %T", st)
}

func (in *Interp) assign(tgt Expr, v Value, env *Env) error {
	switch t := tgt.(type) {
	case *Name:
		env.Set(t.ID, v)
		return nil
	case *Attribute:
		obj, err := in.eval(t.Value, env)
		if err != nil {
			return err
		}
		o, ok := obj.(Object)
		if !ok {
			return in.raise(t.Line(), "AttributeError",
				"'%s' object has no attribute '%s'", obj.Type(), t.Attr)
		}
		if err := o.SetAttr(t.Attr, v); err != nil {
			return attachLine(err, t.Line())
		}
		return nil
	case *Subscript:
		obj, err := in.eval(t.Value, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Index, env)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *List:
			i, ok := AsInt(idx)
			if !ok {
				return in.raise(t.Line(), "TypeError",
					"list indices must be integers or slices, not %s", idx.Type())
			}
			if i < 0 {
				i += int64(len(o.Items))
			}
			if i < 0 || i >= int64(len(o.Items)) {
				return in.raise(t.Line(), "IndexError", "list assignment index out of range")
			}
			o.Items[i] = v
			return nil
		case *Dict:
			o.Set(Format(idx), v)
			return nil
		}
		return in.raise(t.Line(), "TypeError",
			"'%s' object does not support item assignment", obj.Type())
	case *TupleLit:
		items, err := iterate(v)
		if err != nil {
			return in.raise(t.Line(), "TypeError", "cannot unpack non-iterable %s object", v.Type())
		}
		if len(items) != len(t.Elts) {
			return in.raise(t.Line(), "ValueError",
				"not enough values to unpack (expected %d, got %d)", len(t.Elts), len(items))
		}
		for i, el := range t.Elts {
			if err := in.assign(el, items[i], env); err != nil {
				return err
			}
		}
		return nil
	}
	return in.raise(tgt.Line(), "SyntaxError", "cannot assign to expression")
}

// attachLine fills in the line number of host-raised PyErrors.
func attachLine(err error, line int) error {
	if pe, ok := err.(*PyError); ok && pe.Line == 0 {
		pe.Line = line
		return pe
	}
	return err
}

func iterate(v Value) ([]Value, error) {
	switch t := v.(type) {
	case *List:
		return t.Items, nil
	case *Tuple:
		return t.Items, nil
	case Str:
		out := make([]Value, 0, len(t))
		for _, r := range string(t) {
			out = append(out, Str(string(r)))
		}
		return out, nil
	case *Dict:
		out := make([]Value, 0, len(t.keys))
		for _, k := range t.keys {
			out = append(out, Str(k))
		}
		return out, nil
	}
	return nil, fmt.Errorf("'%s' object is not iterable", v.Type())
}

func (in *Interp) eval(e Expr, env *Env) (Value, error) {
	switch x := e.(type) {
	case *Name:
		if v, ok := env.Get(x.ID); ok {
			return v, nil
		}
		return nil, in.raise(x.Line(), "NameError", "name '%s' is not defined", x.ID)
	case *NumLit:
		if x.IsInt {
			return Int(x.Int), nil
		}
		return Float(x.Float), nil
	case *StrLit:
		return Str(x.Value), nil
	case *BoolLit:
		return Bool(x.Value), nil
	case *NoneLit:
		return None, nil
	case *ListLit:
		items := make([]Value, len(x.Elts))
		for i, el := range x.Elts {
			v, err := in.eval(el, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &List{Items: items}, nil
	case *TupleLit:
		items := make([]Value, len(x.Elts))
		for i, el := range x.Elts {
			v, err := in.eval(el, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &Tuple{Items: items}, nil
	case *DictLit:
		d := NewDict()
		for i := range x.Keys {
			k, err := in.eval(x.Keys[i], env)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(x.Values[i], env)
			if err != nil {
				return nil, err
			}
			d.Set(Format(k), v)
		}
		return d, nil
	case *Attribute:
		obj, err := in.eval(x.Value, env)
		if err != nil {
			return nil, err
		}
		return in.getAttr(obj, x.Attr, x.Line())
	case *Subscript:
		obj, err := in.eval(x.Value, env)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(x.Index, env)
		if err != nil {
			return nil, err
		}
		return in.getItem(obj, idx, x.Line())
	case *Call:
		fn, err := in.eval(x.Func, env)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		kwargs := map[string]Value{}
		for i, name := range x.KwNames {
			v, err := in.eval(x.KwValues[i], env)
			if err != nil {
				return nil, err
			}
			kwargs[name] = v
		}
		return in.call(fn, args, kwargs, x.Line())
	case *BinOp:
		l, err := in.eval(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(x.R, env)
		if err != nil {
			return nil, err
		}
		v, err := in.binop(x.Line(), x.Op, l, r)
		if err != nil {
			return nil, err
		}
		return v, nil
	case *UnaryOp:
		v, err := in.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "not":
			return Bool(!Truthy(v)), nil
		case "-":
			switch n := v.(type) {
			case Int:
				return Int(-n), nil
			case Float:
				return Float(-n), nil
			case Bool:
				if n {
					return Int(-1), nil
				}
				return Int(0), nil
			}
			return nil, in.raise(x.Line(), "TypeError", "bad operand type for unary -: '%s'", v.Type())
		case "+":
			if _, ok := AsFloat(v); ok {
				return v, nil
			}
			return nil, in.raise(x.Line(), "TypeError", "bad operand type for unary +: '%s'", v.Type())
		}
		return nil, in.raise(x.Line(), "RuntimeError", "unknown unary op %q", x.Op)
	case *Compare:
		left := x.First
		lv, err := in.eval(left, env)
		if err != nil {
			return nil, err
		}
		for i, op := range x.Ops {
			rv, err := in.eval(x.Rest[i], env)
			if err != nil {
				return nil, err
			}
			ok, err := in.compare(x.Line(), op, lv, rv)
			if err != nil {
				return nil, err
			}
			if !ok {
				return Bool(false), nil
			}
			lv = rv
		}
		return Bool(true), nil
	case *BoolOp:
		var last Value = None
		for i, sub := range x.Values {
			v, err := in.eval(sub, env)
			if err != nil {
				return nil, err
			}
			last = v
			if x.Op == "and" && !Truthy(v) {
				return v, nil
			}
			if x.Op == "or" && Truthy(v) {
				return v, nil
			}
			_ = i
		}
		return last, nil
	}
	return nil, in.raise(e.Line(), "RuntimeError", "unhandled expression %T", e)
}

func (in *Interp) getAttr(obj Value, attr string, line int) (Value, error) {
	if o, ok := obj.(Object); ok {
		v, err := o.GetAttr(attr)
		if err != nil {
			return nil, attachLine(err, line)
		}
		return v, nil
	}
	// Minimal string/list methods used by generated scripts.
	switch t := obj.(type) {
	case Str:
		switch attr {
		case "upper":
			return &NativeFunc{Name: "upper", Fn: func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
				return Str(strings.ToUpper(string(t))), nil
			}}, nil
		case "lower":
			return &NativeFunc{Name: "lower", Fn: func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
				return Str(strings.ToLower(string(t))), nil
			}}, nil
		case "strip":
			return &NativeFunc{Name: "strip", Fn: func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
				return Str(strings.TrimSpace(string(t))), nil
			}}, nil
		case "split":
			return &NativeFunc{Name: "split", Fn: func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
				sep := " "
				if len(args) > 0 {
					if s, ok := args[0].(Str); ok {
						sep = string(s)
					}
				}
				parts := strings.Split(string(t), sep)
				items := make([]Value, len(parts))
				for i, p := range parts {
					items[i] = Str(p)
				}
				return &List{Items: items}, nil
			}}, nil
		}
	case *List:
		switch attr {
		case "append":
			return &NativeFunc{Name: "append", Fn: func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
				t.Items = append(t.Items, args...)
				return None, nil
			}}, nil
		case "extend":
			return &NativeFunc{Name: "extend", Fn: func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
				if len(args) == 1 {
					items, err := iterate(args[0])
					if err != nil {
						return nil, &PyError{Kind: "TypeError", Msg: err.Error()}
					}
					t.Items = append(t.Items, items...)
				}
				return None, nil
			}}, nil
		}
	case *Dict:
		switch attr {
		case "get":
			return &NativeFunc{Name: "get", Fn: func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
				if len(args) == 0 {
					return nil, &PyError{Kind: "TypeError", Msg: "get expected at least 1 argument, got 0"}
				}
				if v, ok := t.Get(Format(args[0])); ok {
					return v, nil
				}
				if len(args) > 1 {
					return args[1], nil
				}
				return None, nil
			}}, nil
		case "keys":
			return &NativeFunc{Name: "keys", Fn: func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
				items := make([]Value, len(t.keys))
				for i, k := range t.keys {
					items[i] = Str(k)
				}
				return &List{Items: items}, nil
			}}, nil
		}
	}
	return nil, in.raise(line, "AttributeError",
		"'%s' object has no attribute '%s'", obj.Type(), attr)
}

func (in *Interp) getItem(obj, idx Value, line int) (Value, error) {
	switch o := obj.(type) {
	case *List:
		i, ok := AsInt(idx)
		if !ok {
			return nil, in.raise(line, "TypeError",
				"list indices must be integers or slices, not %s", idx.Type())
		}
		if i < 0 {
			i += int64(len(o.Items))
		}
		if i < 0 || i >= int64(len(o.Items)) {
			return nil, in.raise(line, "IndexError", "list index out of range")
		}
		return o.Items[i], nil
	case *Tuple:
		i, ok := AsInt(idx)
		if !ok {
			return nil, in.raise(line, "TypeError",
				"tuple indices must be integers or slices, not %s", idx.Type())
		}
		if i < 0 {
			i += int64(len(o.Items))
		}
		if i < 0 || i >= int64(len(o.Items)) {
			return nil, in.raise(line, "IndexError", "tuple index out of range")
		}
		return o.Items[i], nil
	case Str:
		i, ok := AsInt(idx)
		if !ok {
			return nil, in.raise(line, "TypeError", "string indices must be integers")
		}
		if i < 0 {
			i += int64(len(o))
		}
		if i < 0 || i >= int64(len(o)) {
			return nil, in.raise(line, "IndexError", "string index out of range")
		}
		return Str(string(o[i])), nil
	case *Dict:
		key := Format(idx)
		if v, ok := o.Get(key); ok {
			return v, nil
		}
		return nil, in.raise(line, "KeyError", "%s", idx.Repr())
	}
	return nil, in.raise(line, "TypeError", "'%s' object is not subscriptable", obj.Type())
}

// call invokes a callable value.
func (in *Interp) call(fn Value, args []Value, kwargs map[string]Value, line int) (Value, error) {
	switch f := fn.(type) {
	case *NativeFunc:
		in.callLine = line
		v, err := f.Fn(in, args, kwargs)
		if err != nil {
			return nil, attachLine(err, line)
		}
		if v == nil {
			v = None
		}
		return v, nil
	case *Func:
		local := NewEnv(f.Globals)
		nDef := len(f.Defaults)
		nReq := len(f.Params) - nDef
		if len(args) > len(f.Params) {
			return nil, in.raise(line, "TypeError",
				"%s() takes %d positional arguments but %d were given",
				f.Name, len(f.Params), len(args))
		}
		for i, p := range f.Params {
			switch {
			case i < len(args):
				local.Set(p, args[i])
			default:
				if v, ok := kwargs[p]; ok {
					local.Set(p, v)
				} else if i >= nReq {
					local.Set(p, f.Defaults[i-nReq])
				} else {
					return nil, in.raise(line, "TypeError",
						"%s() missing required positional argument: '%s'", f.Name, p)
				}
			}
		}
		err := in.execBlock(f.Body, local)
		if err != nil {
			if rs, ok := err.(returnSignal); ok {
				return rs.v, nil
			}
			return nil, err
		}
		return None, nil
	}
	return nil, in.raise(line, "TypeError", "'%s' object is not callable", fn.Type())
}

// charge counts n elements a builtin or operator is about to build
// against MaxSteps, as statements count: a loop cannot get round the
// bound by growing a list or string in a few statements.
func (in *Interp) charge(line int, n uint64) error {
	if n > uint64(max(in.MaxSteps-in.steps, 0)) {
		return in.raise(line, "RuntimeError", "maximum execution steps exceeded")
	}
	in.steps += int(n)
	return nil
}

// repeatCost is the element count of n copies of size elements.
func repeatCost(size int, n int64) uint64 {
	if size == 0 || n <= 0 {
		return 0
	}
	if uint64(n) > math.MaxUint64/uint64(size) {
		return math.MaxUint64
	}
	return uint64(size) * uint64(n)
}

func (in *Interp) binop(line int, op string, l, r Value) (Value, error) {
	// String concatenation and repetition.
	if op == "+" {
		if ls, ok := l.(Str); ok {
			if rs, ok := r.(Str); ok {
				if err := in.charge(line, uint64(len(ls)+len(rs))); err != nil {
					return nil, err
				}
				return Str(string(ls) + string(rs)), nil
			}
			return nil, in.raise(line, "TypeError",
				"can only concatenate str (not \"%s\") to str", r.Type())
		}
		if ll, ok := l.(*List); ok {
			if rl, ok := r.(*List); ok {
				if err := in.charge(line, uint64(len(ll.Items)+len(rl.Items))); err != nil {
					return nil, err
				}
				items := append(append([]Value{}, ll.Items...), rl.Items...)
				return &List{Items: items}, nil
			}
		}
	}
	if op == "*" {
		if ls, ok := l.(Str); ok {
			if n, ok := AsInt(r); ok {
				if err := in.charge(line, repeatCost(len(ls), n)); err != nil {
					return nil, err
				}
				return Str(strings.Repeat(string(ls), int(max64(0, n)))), nil
			}
		}
		if ll, ok := l.(*List); ok {
			if n, ok := AsInt(r); ok {
				if err := in.charge(line, repeatCost(len(ll.Items), n)); err != nil {
					return nil, err
				}
				var items []Value
				for i := int64(0); i < n && len(ll.Items) > 0; i++ {
					items = append(items, ll.Items...)
				}
				return &List{Items: items}, nil
			}
		}
	}
	if op == "%" {
		if ls, ok := l.(Str); ok {
			// printf-style formatting with a single value or tuple.
			var vals []Value
			if tp, ok := r.(*Tuple); ok {
				vals = tp.Items
			} else {
				vals = []Value{r}
			}
			return Str(pyFormat(string(ls), vals)), nil
		}
	}
	lf, lok := AsFloat(l)
	rf, rok := AsFloat(r)
	if !lok || !rok {
		return nil, in.raise(line, "TypeError",
			"unsupported operand type(s) for %s: '%s' and '%s'", op, l.Type(), r.Type())
	}
	bothInt := isIntLike(l) && isIntLike(r)
	switch op {
	case "+":
		return numResult(lf+rf, bothInt), nil
	case "-":
		return numResult(lf-rf, bothInt), nil
	case "*":
		return numResult(lf*rf, bothInt), nil
	case "/":
		if rf == 0 {
			return nil, in.raise(line, "ZeroDivisionError", "division by zero")
		}
		return Float(lf / rf), nil
	case "//":
		if rf == 0 {
			return nil, in.raise(line, "ZeroDivisionError", "integer division or modulo by zero")
		}
		return numResult(math.Floor(lf/rf), bothInt), nil
	case "%":
		if rf == 0 {
			return nil, in.raise(line, "ZeroDivisionError", "integer division or modulo by zero")
		}
		m := math.Mod(lf, rf)
		if m != 0 && (m < 0) != (rf < 0) {
			m += rf
		}
		return numResult(m, bothInt), nil
	case "**":
		return numResult(math.Pow(lf, rf), bothInt && rf >= 0), nil
	}
	return nil, in.raise(line, "RuntimeError", "unknown operator %q", op)
}

func isIntLike(v Value) bool {
	switch v.(type) {
	case Int, Bool:
		return true
	}
	return false
}

func numResult(v float64, wantInt bool) Value {
	if wantInt && v == math.Trunc(v) {
		return Int(int64(v))
	}
	return Float(v)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (in *Interp) compare(line int, op string, l, r Value) (bool, error) {
	switch op {
	case "in", "not in":
		found := false
		switch c := r.(type) {
		case *List:
			for _, it := range c.Items {
				if valueEq(l, it) {
					found = true
					break
				}
			}
		case *Tuple:
			for _, it := range c.Items {
				if valueEq(l, it) {
					found = true
					break
				}
			}
		case Str:
			if ls, ok := l.(Str); ok {
				found = strings.Contains(string(c), string(ls))
			}
		case *Dict:
			_, found = c.Get(Format(l))
		default:
			return false, in.raise(line, "TypeError", "argument of type '%s' is not iterable", r.Type())
		}
		if op == "not in" {
			return !found, nil
		}
		return found, nil
	case "is":
		return l == r || (l.Type() == "NoneType" && r.Type() == "NoneType"), nil
	case "is not":
		eq := l == r || (l.Type() == "NoneType" && r.Type() == "NoneType")
		return !eq, nil
	case "==":
		return valueEq(l, r), nil
	case "!=":
		return !valueEq(l, r), nil
	}
	// Ordering.
	if ls, ok := l.(Str); ok {
		if rs, ok := r.(Str); ok {
			switch op {
			case "<":
				return ls < rs, nil
			case "<=":
				return ls <= rs, nil
			case ">":
				return ls > rs, nil
			case ">=":
				return ls >= rs, nil
			}
		}
	}
	lf, lok := AsFloat(l)
	rf, rok := AsFloat(r)
	if !lok || !rok {
		return false, in.raise(line, "TypeError",
			"'%s' not supported between instances of '%s' and '%s'", op, l.Type(), r.Type())
	}
	switch op {
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return false, in.raise(line, "RuntimeError", "unknown comparison %q", op)
}

// eqLimit bounds the element comparisons one == makes: two lists can
// hold themselves, or one sublist many times over at every level.
const eqLimit = 1 << 20

func valueEq(l, r Value) bool {
	budget := eqLimit
	return valueEqWithin(l, r, &budget)
}

// valueEqWithin is valueEq spending *budget comparisons; when it runs
// out, the values compare unequal.
func valueEqWithin(l, r Value, budget *int) bool {
	if *budget--; *budget < 0 {
		return false
	}
	if lf, ok := AsFloat(l); ok {
		if rf, ok := AsFloat(r); ok {
			return lf == rf
		}
		return false
	}
	switch a := l.(type) {
	case Str:
		b, ok := r.(Str)
		return ok && a == b
	case NoneValue:
		_, ok := r.(NoneValue)
		return ok
	case *List:
		b, ok := r.(*List)
		return ok && (a == b || itemsEq(a.Items, b.Items, budget))
	case *Tuple:
		b, ok := r.(*Tuple)
		return ok && (a == b || itemsEq(a.Items, b.Items, budget))
	}
	return l == r
}

func itemsEq(a, b []Value, budget *int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valueEqWithin(a[i], b[i], budget) {
			return false
		}
	}
	return true
}

// pyFormat implements a useful subset of %-formatting.
func pyFormat(format string, vals []Value) string {
	var b strings.Builder
	vi := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			b.WriteByte(c)
			continue
		}
		i++
		spec := format[i]
		if spec == '%' {
			b.WriteByte('%')
			continue
		}
		var v Value = Str("")
		if vi < len(vals) {
			v = vals[vi]
			vi++
		}
		switch spec {
		case 'd', 'i':
			if n, ok := AsInt(v); ok {
				fmt.Fprintf(&b, "%d", n)
			} else {
				b.WriteString(Format(v))
			}
		case 'f', 'g', 'e':
			if f, ok := AsFloat(v); ok {
				fmt.Fprintf(&b, "%"+string(spec), f)
			} else {
				b.WriteString(Format(v))
			}
		case 's':
			b.WriteString(Format(v))
		case 'r':
			b.WriteString(v.Repr())
		default:
			b.WriteByte('%')
			b.WriteByte(spec)
		}
	}
	return b.String()
}
