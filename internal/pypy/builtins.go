package pypy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// registerBuiltins installs the Python builtins the generated scripts use.
func registerBuiltins(env *Env) {
	nf := func(name string, fn func(in *Interp, args []Value, kwargs map[string]Value) (Value, error)) {
		env.Set(name, &NativeFunc{Name: name, Fn: fn})
	}
	nf("print", func(in *Interp, args []Value, _ map[string]Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = Format(a)
		}
		fmt.Fprintln(in.Stdout, strings.Join(parts, " "))
		return None, nil
	})
	nf("len", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, &PyError{Kind: "TypeError", Msg: fmt.Sprintf("len() takes exactly one argument (%d given)", len(args))}
		}
		switch t := args[0].(type) {
		case Str:
			return Int(len(t)), nil
		case *List:
			return Int(len(t.Items)), nil
		case *Tuple:
			return Int(len(t.Items)), nil
		case *Dict:
			return Int(len(t.Keys())), nil
		}
		return nil, &PyError{Kind: "TypeError", Msg: fmt.Sprintf("object of type '%s' has no len()", args[0].Type())}
	})
	nf("range", func(in *Interp, args []Value, _ map[string]Value) (Value, error) {
		var start, stop, step int64 = 0, 0, 1
		get := func(v Value) (int64, error) {
			n, ok := AsInt(v)
			if !ok {
				return 0, &PyError{Kind: "TypeError", Msg: fmt.Sprintf("'%s' object cannot be interpreted as an integer", v.Type())}
			}
			return n, nil
		}
		var err error
		switch len(args) {
		case 1:
			stop, err = get(args[0])
		case 2:
			if start, err = get(args[0]); err == nil {
				stop, err = get(args[1])
			}
		case 3:
			if start, err = get(args[0]); err == nil {
				if stop, err = get(args[1]); err == nil {
					step, err = get(args[2])
				}
			}
		default:
			return nil, &PyError{Kind: "TypeError", Msg: "range expected 1 to 3 arguments"}
		}
		if err != nil {
			return nil, err
		}
		if step == 0 {
			return nil, &PyError{Kind: "ValueError", Msg: "range() arg 3 must not be zero"}
		}
		// The element count, in unsigned arithmetic so that no bound
		// overflows; every element counts against MaxSteps.
		var n uint64
		if step > 0 && start < stop {
			n = (uint64(stop)-uint64(start)-1)/uint64(step) + 1
		} else if step < 0 && start > stop {
			n = (uint64(start)-uint64(stop)-1)/uint64(-step) + 1
		}
		if err := in.charge(in.callLine, n); err != nil {
			return nil, err
		}
		items := make([]Value, 0, n)
		if step > 0 {
			for i := start; i < stop; i += step {
				items = append(items, Int(i))
			}
		} else {
			for i := start; i > stop; i += step {
				items = append(items, Int(i))
			}
		}
		return &List{Items: items}, nil
	})
	nf("str", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return Str(""), nil
		}
		return Str(Format(args[0])), nil
	})
	nf("int", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return Int(0), nil
		}
		if s, ok := args[0].(Str); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(string(s)), 10, 64)
			if err != nil {
				return nil, &PyError{Kind: "ValueError", Msg: fmt.Sprintf("invalid literal for int() with base 10: %s", s.Repr())}
			}
			return Int(n), nil
		}
		if f, ok := AsFloat(args[0]); ok {
			return Int(int64(math.Trunc(f))), nil
		}
		return nil, &PyError{Kind: "TypeError", Msg: fmt.Sprintf("int() argument must be a string or a number, not '%s'", args[0].Type())}
	})
	nf("float", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return Float(0), nil
		}
		if s, ok := args[0].(Str); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(string(s)), 64)
			if err != nil {
				return nil, &PyError{Kind: "ValueError", Msg: fmt.Sprintf("could not convert string to float: %s", s.Repr())}
			}
			return Float(f), nil
		}
		if f, ok := AsFloat(args[0]); ok {
			return Float(f), nil
		}
		return nil, &PyError{Kind: "TypeError", Msg: fmt.Sprintf("float() argument must be a string or a number, not '%s'", args[0].Type())}
	})
	nf("abs", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, &PyError{Kind: "TypeError", Msg: "abs() takes exactly one argument"}
		}
		switch t := args[0].(type) {
		case Int:
			if t < 0 {
				return -t, nil
			}
			return t, nil
		case Float:
			return Float(math.Abs(float64(t))), nil
		}
		return nil, &PyError{Kind: "TypeError", Msg: fmt.Sprintf("bad operand type for abs(): '%s'", args[0].Type())}
	})
	minmax := func(name string, better func(a, b float64) bool) func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		return func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			var items []Value
			if len(args) == 1 {
				var err error
				items, err = iterate(args[0])
				if err != nil {
					return nil, &PyError{Kind: "TypeError", Msg: err.Error()}
				}
			} else {
				items = args
			}
			if len(items) == 0 {
				return nil, &PyError{Kind: "ValueError", Msg: name + "() arg is an empty sequence"}
			}
			best := items[0]
			bestF, ok := AsFloat(best)
			if !ok {
				return nil, &PyError{Kind: "TypeError", Msg: "unorderable types"}
			}
			for _, it := range items[1:] {
				f, ok := AsFloat(it)
				if !ok {
					return nil, &PyError{Kind: "TypeError", Msg: "unorderable types"}
				}
				if better(f, bestF) {
					best, bestF = it, f
				}
			}
			return best, nil
		}
	}
	nf("min", minmax("min", func(a, b float64) bool { return a < b }))
	nf("max", minmax("max", func(a, b float64) bool { return a > b }))
	nf("list", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return &List{}, nil
		}
		items, err := iterate(args[0])
		if err != nil {
			return nil, &PyError{Kind: "TypeError", Msg: err.Error()}
		}
		return &List{Items: append([]Value{}, items...)}, nil
	})
	nf("tuple", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return &Tuple{}, nil
		}
		items, err := iterate(args[0])
		if err != nil {
			return nil, &PyError{Kind: "TypeError", Msg: err.Error()}
		}
		return &Tuple{Items: append([]Value{}, items...)}, nil
	})
	nf("round", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return nil, &PyError{Kind: "TypeError", Msg: "round() missing required argument"}
		}
		f, ok := AsFloat(args[0])
		if !ok {
			return nil, &PyError{Kind: "TypeError", Msg: "round() argument must be a number"}
		}
		digits := int64(0)
		if len(args) > 1 {
			digits, _ = AsInt(args[1])
		}
		scale := math.Pow(10, float64(digits))
		r := math.Round(f*scale) / scale
		if digits == 0 {
			return Int(int64(r)), nil
		}
		return Float(r), nil
	})
	nf("enumerate", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return nil, &PyError{Kind: "TypeError", Msg: "enumerate() missing required argument"}
		}
		items, err := iterate(args[0])
		if err != nil {
			return nil, &PyError{Kind: "TypeError", Msg: err.Error()}
		}
		out := make([]Value, len(items))
		for i, it := range items {
			out[i] = &Tuple{Items: []Value{Int(i), it}}
		}
		return &List{Items: out}, nil
	})
	nf("isinstance", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		// Scripts occasionally guard with isinstance; we approximate by
		// returning True (the proxies are duck-typed anyway).
		return Bool(true), nil
	})
	nf("type", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return nil, &PyError{Kind: "TypeError", Msg: "type() takes 1 argument"}
		}
		return Str("<class '" + args[0].Type() + "'>"), nil
	})
	nf("sorted", func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) == 0 {
			return nil, &PyError{Kind: "TypeError", Msg: "sorted expected 1 argument, got 0"}
		}
		items, err := iterate(args[0])
		if err != nil {
			return nil, &PyError{Kind: "TypeError", Msg: err.Error()}
		}
		cp := append([]Value{}, items...)
		// Numeric-or-string insertion sort (small inputs only).
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0; j-- {
				less := false
				if a, ok := AsFloat(cp[j]); ok {
					if b, ok := AsFloat(cp[j-1]); ok {
						less = a < b
					}
				} else if a, ok := cp[j].(Str); ok {
					if b, ok := cp[j-1].(Str); ok {
						less = a < b
					}
				}
				if !less {
					break
				}
				cp[j], cp[j-1] = cp[j-1], cp[j]
			}
		}
		return &List{Items: cp}, nil
	})
}
