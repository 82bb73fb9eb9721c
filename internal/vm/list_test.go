package vm

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"streams/internal/tuple"
)

func init() {
	RegisterListBuiltin("test.split:s>l", func(a *Arena, args []Val) Val {
		mark := a.Mark()
		for _, f := range strings.Fields(args[0].S) {
			a.Append(f)
		}
		return a.List(mark)
	})
	RegisterListBuiltin("test.join:l", func(a *Arena, args []Val) Val {
		return Val{S: strings.Join(a.Strs(args[0]), "+")}
	})
}

var strIn = Layout{Fields: []Field{{Name: "s", Kind: KStr}}}

// listSeg is the geometry every list test program shares: slot 0 the
// input string, slot 1 the output string, slots 2.. locals.
func listSeg(name string) Seg {
	return Seg{InBase: 0, NIn: 1, OutBase: 1, NOut: 1, Fresh: true, Name: name, Out: strIn}
}

func finishList(t *testing.T, b *Builder, name string) *Program {
	t.Helper()
	p, err := b.Finish(listSeg(name), strIn, 4)
	if err != nil {
		t.Fatalf("finish %s: %v", name, err)
	}
	if err := p.Bind(sliceCodec{}); err != nil {
		t.Fatalf("bind %s: %v", name, err)
	}
	return p
}

// pickProg emits join(split(s)[lo:hi]) + "|" + split(s)[idx], keeping
// the list in a local slot in between.
func pickProg(t *testing.T, lo, hi, idx int64) *Program {
	b := NewBuilder()
	b.Ins(OpLoad, 0, 0)
	b.Call("test.split:s>l", 1)
	b.Ins(OpStore, 2, 0)
	b.Ins(OpLoad, 2, 0)
	b.ConstI(lo)
	b.ConstI(hi)
	b.Op(OpSliceL)
	b.Call("test.join:l", 1)
	b.ConstS("|")
	b.Op(OpCatS)
	b.Ins(OpLoad, 2, 0)
	b.ConstI(idx)
	b.Op(OpIndexL)
	b.Op(OpCatS)
	b.Ins(OpStore, 1, 0)
	b.Op(OpEmit)
	return finishList(t, b, "pick")
}

func runStr(m *Machine, p *Program, s string) (out string, fault any) {
	defer func() { fault = recover() }()
	m.Run(p, tuple.Tuple{Ref: []Val{{S: s}}}, EmitFunc(func(o tuple.Tuple) { out = o.Ref.([]Val)[0].S }))
	return out, nil
}

func TestValStays32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Val{}); n != 32 {
		t.Fatalf("Val is %d bytes, want 32: a list is a span in the int lane, not a new lane", n)
	}
}

func TestListIndexSliceAndCalls(t *testing.T) {
	var m Machine
	for _, tc := range []struct {
		lo, hi, idx int64
		in, want    string
	}{
		{1, 3, 0, "a b c d", "b+c|a"},
		{-4, 99, 3, "a b c d", "a+b+c+d|d"},
		{3, 1, 1, "a b c d", "|b"},
		{2, 1 << 62, 2, "a b c", "c|c"},
	} {
		got, fault := runStr(&m, pickProg(t, tc.lo, tc.hi, tc.idx), tc.in)
		if fault != nil || got != tc.want {
			t.Errorf("[%d:%d],[%d] of %q = %q (fault %v), want %q", tc.lo, tc.hi, tc.idx, tc.in, got, fault, tc.want)
		}
	}
}

// TestListIndexFaultIsContained: an index outside the list is an
// operator fault — *Error naming the segment and instruction — not a Go
// runtime panic, and the machine runs the next tuple normally.
func TestListIndexFaultIsContained(t *testing.T) {
	var m Machine
	p := pickProg(t, 0, 9, 2)
	for _, in := range []string{"a b", ""} {
		_, fault := runStr(&m, p, in)
		var e *Error
		if err, ok := fault.(error); !ok || !errors.As(err, &e) {
			t.Fatalf("index past %q: fault %v (%T), want *Error", in, fault, fault)
		}
		if e.Seg != 0 || p.Code[e.PC].Op != OpIndexL || !strings.Contains(e.Msg, "out of range") {
			t.Fatalf("fault misattributed: %v", e)
		}
	}
	neg := pickProg(t, 0, 9, -1)
	if _, fault := runStr(&m, neg, "a b c"); fault == nil {
		t.Fatal("negative index did not fault")
	}
	if got, fault := runStr(&m, p, "x y z"); fault != nil || got != "x+y+z|z" {
		t.Fatalf("machine not reusable after a fault: %q, %v", got, fault)
	}
}

func TestMakeList(t *testing.T) {
	b := NewBuilder()
	b.Ins(OpLoad, 0, 0)
	b.ConstS("mid")
	b.Ins(OpLoad, 0, 0)
	b.Ins(OpMakeL, 3, 0)
	b.Call("test.join:l", 1)
	b.Ins(OpMakeL, 0, 0)
	b.Call("test.join:l", 1)
	b.Op(OpCatS)
	b.Ins(OpStore, 1, 0)
	b.Op(OpEmit)
	var m Machine
	if got, fault := runStr(&m, finishList(t, b, "make"), "x"); fault != nil || got != "x+mid+x" {
		t.Fatalf("make.l: %q, %v", got, fault)
	}
}

// TestListRoundTripAndFuse: the new opcodes survive encode/decode
// bit-exactly, and fusion relocates a list call like any other.
func TestListRoundTripAndFuse(t *testing.T) {
	p := pickProg(t, 1, 3, 0)
	q, err := Decode(p.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(q.Code, p.Code) || q.HashString() != p.HashString() {
		t.Fatal("list program changed across encode/decode")
	}
	if err := q.Bind(sliceCodec{}); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	b.Ins(OpLoad, 0, 0)
	b.Call("test.split:s>l", 1)
	b.Call("test.join:l", 1)
	b.Ins(OpStore, 1, 0)
	b.Op(OpEmit)
	fused, err := Fuse([]*Program{q, finishList(t, b, "rejoin")})
	if err != nil {
		t.Fatalf("fuse: %v", err)
	}
	var m Machine
	if got, fault := runStr(&m, fused, "a b c d"); fault != nil || got != "b+c|a" {
		t.Fatalf("fused list programs: %q, %v", got, fault)
	}
	if _, err := PlanVec(fused); err == nil {
		t.Fatal("PlanVec accepted a list program; lists live in the scalar machine's arena")
	}
	for _, want := range []string{"index.l", "slice.l", "call.l     test.split:s>l/1"} {
		if !strings.Contains(Disasm(fused), want) {
			t.Fatalf("disasm missing %q:\n%s", want, Disasm(fused))
		}
	}
}

// TestGoldenHashesUnchanged pins the content hashes of three programs
// as the commit before the list opcodes computed them: new opcodes are
// appended before numOps and the encoding did not move, so programs
// already placed by hash keep their address.
func TestGoldenHashesUnchanged(t *testing.T) {
	f, g := funcProg(t, "f", 3, 1), filterProg(t, "g", 2, 0)
	fused, err := Fuse([]*Program{f, g})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    *Program
		want string
	}{
		{f, "8a06282b8c4ee16a12b64f77231e873dd2274f6b8de7b8033a5d104c2a24bac6"},
		{g, "8655c708d997cf5d3a01198399f2d1892f60fc758e95efcd3e2f0db0698a28b6"},
		{fused, "3eb76e817b7ed841f54041d203354257b3a1d1ef05ed919336ba56fa8c09764a"},
	} {
		if got := tc.p.HashString(); got != tc.want {
			t.Errorf("hash of %s moved: %s, want %s", tc.p.Segs[0].Name, got, tc.want)
		}
	}
}

// TestResetClearsArena is the leak regression for the list arena: the
// tokens of the last tuple are substrings of its (possibly large) input
// and must not stay reachable from a machine that has been Reset.
func TestResetClearsArena(t *testing.T) {
	var m Machine
	p := pickProg(t, 0, 9, 0)
	if _, fault := runStr(&m, p, strings.Repeat("token ", 64)); fault != nil {
		t.Fatal(fault)
	}
	if len(m.arena.strs) == 0 {
		t.Fatal("run left nothing in the arena; test is vacuous")
	}
	m.Reset(p)
	for i, s := range m.arena.strs[:cap(m.arena.strs)] {
		if s != "" {
			t.Fatalf("arena[%d] = %q survived Reset", i, s)
		}
	}
}

// TestVerifyListRules drives the verifier's list typing and stack
// discipline with one hand-assembled program per rule.
func TestVerifyListRules(t *testing.T) {
	split := func(b *Builder) { b.Ins(OpLoad, 0, 0); b.Call("test.split:s>l", 1) }
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string // substring of the error; "" means the program verifies
	}{
		{"list through a join of two list paths", func(b *Builder) {
			b.ConstI(1)
			j := b.Jump(OpJumpIfFalse)
			split(b)
			e := b.Jump(OpJump)
			b.Patch(j)
			b.Ins(OpMakeL, 0, 0)
			b.Patch(e)
			b.Call("test.join:l", 1)
			b.Op(OpPop)
		}, ""},
		{"index of an int", func(b *Builder) { b.ConstI(7); b.ConstI(0); b.Op(OpIndexL); b.Op(OpPop) }, "not a list"},
		{"slice of a string", func(b *Builder) { b.Ins(OpLoad, 0, 0); b.ConstI(0); b.ConstI(1); b.Op(OpSliceL); b.Op(OpPop) }, "not a list"},
		{"list builtin on a forged span", func(b *Builder) { b.ConstI(1 << 40); b.Call("test.join:l", 1); b.Op(OpPop) }, "not a list"},
		{"list slot read before any store", func(b *Builder) { b.Ins(OpLoad, 2, 0); b.ConstI(0); b.Op(OpIndexL); b.Op(OpPop) }, "not a list"},
		{"list on one path only", func(b *Builder) {
			b.ConstI(1)
			j := b.Jump(OpJumpIfFalse)
			split(b)
			e := b.Jump(OpJump)
			b.Patch(j)
			b.ConstI(0)
			b.Patch(e)
			b.Call("test.join:l", 1)
			b.Op(OpPop)
		}, "not a list"},
		{"list in the out window", func(b *Builder) { split(b); b.Ins(OpStore, 1, 0); b.Op(OpEmit) }, "out-window"},
		{"list on the stack across an emit", func(b *Builder) { split(b); b.Op(OpEmit); b.Op(OpPop) }, "across an emit"},
		{"list slot live across an emit", func(b *Builder) {
			split(b)
			b.Ins(OpStore, 2, 0)
			b.Op(OpEmit)
			b.Ins(OpLoad, 2, 0)
			b.Call("test.join:l", 1)
			b.Op(OpPop)
		}, "not a list"},
		{"stack underflow", func(b *Builder) { b.Op(OpAddI) }, "underflow"},
		{"depths disagree at a join", func(b *Builder) {
			b.ConstI(1)
			j := b.Jump(OpJumpIfFalse)
			b.ConstI(2)
			b.Patch(j)
			b.Op(OpNop)
		}, "stack depth"},
		{"scalar call of a list builtin", func(b *Builder) { b.Ins(OpLoad, 0, 0); b.Ins(OpCall, b.builtin("test.split:s>l"), 1); b.Op(OpPop) }, "wrong call opcode"},
		{"call arity off its signature", func(b *Builder) { b.ConstI(1); b.Ins(OpCall, b.builtin("test.add2:ii"), 1); b.Op(OpPop) }, "argument count"},
	}
	for _, tc := range cases {
		b := NewBuilder()
		tc.build(b)
		_, err := b.Finish(listSeg(tc.name), strIn, 4)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}

	// Rules about the program header rather than its code.
	p := pickProg(t, 0, 1, 0)
	for name, breakIt := range map[string]func(q *Program){
		"list attribute in the in layout":   func(q *Program) { q.In = Layout{Fields: []Field{{Name: "s", Kind: KList}}} },
		"list attribute in an out layout":   func(q *Program) { q.Segs[0].Out = Layout{Fields: []Field{{Name: "s", Kind: KList}}} },
		"stack smaller than the code needs": func(q *Program) { q.MaxStack = 1 },
		"slot file beyond the bound":        func(q *Program) { q.NumSlots = maxGeometry + 1 },
	} {
		q := *p
		q.Segs = append([]Seg(nil), p.Segs...)
		breakIt(&q)
		if err := q.Verify(); err == nil {
			t.Errorf("%s: verified", name)
		}
	}
}
