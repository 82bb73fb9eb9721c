package spl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Runtime value representation:
//
//	boolean          → bool
//	int32, int64     → int64
//	float64          → float64
//	rstring          → string
//	timestamp        → string (normalized "date time")
//	list<T>          → []Value
//	tuple types      → Tup
//
// Values are immutable by convention: the interpreter copies lists and
// tuples on modification, so tuples can be shared across operator queues
// without synchronization (matching the runtime's copy-on-submit tuple
// model).
type Value any

// Tup is a runtime tuple: attribute name → value. Field order for
// printing comes from the static TupleType, so a plain map suffices.
type Tup map[string]Value

// zeroValue returns the zero of a resolved type.
func zeroValue(t Type) Value {
	switch tt := t.(type) {
	case Prim:
		switch tt {
		case Boolean:
			return false
		case Int32, Int64:
			return int64(0)
		case Float64:
			return float64(0)
		case RString, Timestamp:
			return ""
		}
	case ListType:
		return []Value(nil)
	case TupleType:
		tv := Tup{}
		for _, f := range tt.Fields {
			tv[f.Name] = zeroValue(f.Type)
		}
		return tv
	}
	return nil
}

// formatValue renders a value for FileSink output and diagnostics.
func formatValue(v Value) string {
	switch x := v.(type) {
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%g", x)
	case string:
		return x
	case []Value:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = formatValue(e)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case Tup:
		names := make([]string, 0, len(x))
		for n := range x {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = n + "=" + formatValue(x[n])
		}
		return "{" + strings.Join(parts, ",") + "}"
	case nil:
		return "<nil>"
	default:
		return fmt.Sprintf("%v", x)
	}
}

// appendValue appends v as formatValue renders it, without the
// intermediate string for scalars.
func appendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case bool:
		return strconv.AppendBool(dst, x)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return appendFloat(dst, x)
	case string:
		return append(dst, x...)
	default:
		return append(dst, formatValue(v)...)
	}
}

// appendFloat appends x as fmt's %g prints it.
func appendFloat(dst []byte, x float64) []byte {
	return strconv.AppendFloat(dst, x, 'g', -1, 64)
}

// appendTuple appends a tuple payload's attributes in static field
// order, comma-separated — the FileSink line format. A VM-emitted *Rec
// is read straight from its columns; only a payload that really is a
// map goes through one.
func appendTuple(dst []byte, ref any, tt TupleType) []byte {
	r, isRec := ref.(*Rec)
	var tv Tup
	if !isRec {
		tv = ref.(Tup)
	}
	for i, f := range tt.Fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		if isRec {
			dst = r.appendField(dst, i, f.Name)
		} else {
			dst = appendValue(dst, tv[f.Name])
		}
	}
	return dst
}

// valueEq compares two same-typed runtime values.
func valueEq(a, b Value) bool {
	switch x := a.(type) {
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !valueEq(x[i], y[i]) {
				return false
			}
		}
		return true
	case Tup:
		y, ok := b.(Tup)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if !valueEq(v, y[k]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// RuntimeError is an SPL execution error (bad index, division by zero).
// Operator logic panics with a RuntimeError; as in the product, a failing
// operator takes its PE down.
type RuntimeError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return fmt.Sprintf("spl runtime: %s: %s", e.Pos, e.Msg) }

func rtErrf(pos Pos, format string, args ...any) *RuntimeError {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
