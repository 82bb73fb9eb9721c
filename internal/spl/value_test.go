package spl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"streams/internal/vm"
)

func TestZeroValue(t *testing.T) {
	cases := []struct {
		typ  Type
		want Value
	}{
		{Boolean, false},
		{Int32, int64(0)},
		{Int64, int64(0)},
		{Float64, float64(0)},
		{RString, ""},
		{Timestamp, ""},
	}
	for _, tc := range cases {
		if got := zeroValue(tc.typ); got != tc.want {
			t.Errorf("zeroValue(%s) = %v, want %v", tc.typ, got, tc.want)
		}
	}
	if got := zeroValue(ListType{Elem: Int64}); got == nil {
		if _, ok := got.([]Value); false && !ok {
			t.Error("list zero not a []Value")
		}
	}
	tt := TupleType{Fields: []TField{{"a", Int64}, {"b", RString}}}
	tv := zeroValue(tt).(Tup)
	if tv["a"] != int64(0) || tv["b"] != "" {
		t.Errorf("tuple zero = %v", tv)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{true, "true"},
		{false, "false"},
		{int64(-5), "-5"},
		{float64(2.5), "2.5"},
		{"hi", "hi"},
		{[]Value{int64(1), int64(2)}, "[1,2]"},
		{Tup{"b": int64(2), "a": int64(1)}, "{a=1,b=2}"},
		{nil, "<nil>"},
	}
	for _, tc := range cases {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestFormatTupleOrder(t *testing.T) {
	tt := TupleType{Fields: []TField{{"z", Int64}, {"a", RString}}}
	got := string(appendTuple(nil, Tup{"a": "x", "z": int64(9)}, tt))
	if got != "9,x" {
		t.Errorf("appendTuple = %q, want declared field order 9,x", got)
	}
}

// TestAppendTupleRecMatchesTup pins the FileSink line format across the
// two payload forms: a VM-emitted *Rec rendered straight from its
// columns must produce the bytes the map path produces through
// formatValue, for every kind, for floats on both sides of %g's
// exponent switch, for a sink schema in a different order than the
// frame's, and for an attribute the payload lacks.
func TestAppendTupleRecMatchesTup(t *testing.T) {
	layout := vm.Layout{Fields: []vm.Field{
		{Name: "i", Kind: vm.KInt}, {Name: "f", Kind: vm.KFloat},
		{Name: "s", Kind: vm.KStr}, {Name: "b", Kind: vm.KBool},
	}}
	sink := TupleType{Fields: []TField{
		{"s", RString}, {"i", Int64}, {"ghost", Int64}, {"b", Boolean}, {"f", Float64},
	}}
	floats := []float64{0, -0.5, 2.5, 1e21, 1e20, 123456789.125, 1e-5, 1e-4,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	var st frameStore
	for k, f := range floats {
		vals := []vm.Val{{I: int64(k) - 3}, {F: f}, {S: fmt.Sprintf("row,%d", k)}, {I: int64(k % 2)}}
		rec := st.Append(vals, layout).(*Rec)
		tv := rec.Tup()
		parts := make([]string, len(sink.Fields))
		for i, fd := range sink.Fields {
			parts[i] = formatValue(tv[fd.Name])
		}
		want := strings.Join(parts, ",")
		if got := string(appendTuple(nil, rec, sink)); got != want {
			t.Errorf("rec line %q, want %q", got, want)
		}
		if got := string(appendTuple(nil, tv, sink)); got != want {
			t.Errorf("tup line %q, want %q", got, want)
		}
	}
}

func TestValueEq(t *testing.T) {
	if !valueEq([]Value{int64(1)}, []Value{int64(1)}) {
		t.Error("equal lists compared unequal")
	}
	if valueEq([]Value{int64(1)}, []Value{int64(2)}) {
		t.Error("unequal lists compared equal")
	}
	if valueEq([]Value{int64(1)}, []Value{int64(1), int64(2)}) {
		t.Error("different-length lists compared equal")
	}
	if !valueEq(Tup{"a": int64(1)}, Tup{"a": int64(1)}) {
		t.Error("equal tuples compared unequal")
	}
	if valueEq(Tup{"a": int64(1)}, Tup{"a": int64(2)}) {
		t.Error("unequal tuples compared equal")
	}
	if valueEq(int64(1), "1") {
		t.Error("cross-type values compared equal")
	}
}

func TestRuntimeErrorFormatting(t *testing.T) {
	err := rtErrf(Pos{Line: 3, Col: 7}, "boom %d", 42)
	if !strings.Contains(err.Error(), "3:7") || !strings.Contains(err.Error(), "boom 42") {
		t.Errorf("RuntimeError format %q", err.Error())
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[string]Type{
		"boolean":                   Boolean,
		"int64":                     Int64,
		"list<rstring>":             ListType{Elem: RString},
		"tuple<int64 a, rstring b>": TupleType{Fields: []TField{{"a", Int64}, {"b", RString}}},
		"list<list<int64>>":         ListType{Elem: ListType{Elem: Int64}},
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%T String() = %q, want %q", typ, got, want)
		}
	}
}

func TestAssignable(t *testing.T) {
	if !assignable(Int64, Int32) || !assignable(Int32, Int64) {
		t.Error("integer widening rejected")
	}
	if assignable(Int64, Float64) || assignable(RString, Timestamp) {
		t.Error("cross-kind assignment accepted")
	}
	if !assignable(ListType{Elem: Int64}, ListType{Elem: Int64}) {
		t.Error("identical list types rejected")
	}
	if assignable(ListType{Elem: Int64}, ListType{Elem: RString}) {
		t.Error("mismatched list element accepted")
	}
}
