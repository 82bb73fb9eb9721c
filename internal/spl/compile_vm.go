package spl

import (
	"fmt"
	"math"

	"streams/internal/vm"
)

// This file lowers checked SPL expression ASTs and logic blocks to
// vm.Programs: the portable, fusable alternative to the closure
// evaluator in check.go. Scalars and lists of strings compile — list
// literals, indexing, slicing, list-typed locals and the list builtins
// (tokenize, flatten, parseMsg, size) — which covers the paper's own
// LoginFailures end to end. Lists are operator-local: they live in
// locals and on the operand stack, never in a stream attribute, and the
// VM's verifier additionally refuses a list that is still in use after
// a submit. Compilation is best-effort — any construct outside that
// value model (lists of other element types, list-typed attributes,
// nested tuples, state clauses, multi-port logic) aborts via
// errVMUnsupported, or fails verification, and the operator keeps its
// closure path. The two paths must agree exactly on supported programs;
// vm_diff_test.go checks that property on random expressions.
//
// Attribute-index resolution and constant folding happen here, at
// compile time: input attributes become slot loads (no per-tuple map
// lookups) and call-free constant subexpressions are evaluated once
// through the same constEval the checker uses (never across calls, so
// spin()'s deliberate CPU burn is not folded away).

// errVMUnsupported aborts compilation; it carries the construct for
// splc -dump-vm diagnostics.
type errVMUnsupported struct{ reason string }

func unsupported(format string, args ...any) {
	panic(errVMUnsupported{fmt.Sprintf(format, args...)})
}

// vmKindOf maps an SPL type onto a VM kind: the scalars onto their
// lanes, a list of strings onto vm.KList.
func vmKindOf(t Type) (vm.Kind, bool) {
	if lt, isList := t.(ListType); isList {
		ek, ok := vmKindOf(lt.Elem)
		return vm.KList, ok && ek == vm.KStr
	}
	switch {
	case t == nil:
		return 0, false
	case t.equal(Boolean):
		return vm.KBool, true
	case isInt(t):
		return vm.KInt, true
	case t.equal(Float64):
		return vm.KFloat, true
	case t.equal(RString), t.equal(Timestamp):
		return vm.KStr, true
	default:
		return 0, false
	}
}

// vmLayoutOf maps a tuple type onto a slot layout, attribute order
// preserved. Fails when any attribute is non-scalar.
func vmLayoutOf(tt TupleType) (vm.Layout, bool) {
	fs := make([]vm.Field, len(tt.Fields))
	for i, f := range tt.Fields {
		k, ok := vmKindOf(f.Type)
		if !ok || k == vm.KList {
			return vm.Layout{}, false
		}
		fs[i] = vm.Field{Name: f.Name, Kind: k}
	}
	return vm.Layout{Fields: fs}, true
}

// vmc is one compilation: a builder plus the scope mapping names to
// slots. Locals get fresh slots per declaration; lexical shadowing is
// handled by an explicit scope stack.
type vmc struct {
	b      *vm.Builder
	scopes []map[string]vmSlot
	nslots int32
	// loop frames: pcs of break/continue jumps awaiting patching.
	breaks [][]int32
	conts  []int32 // loop-start pcs, one per open loop
	// out window, for submit lowering (custom operators only).
	outBase   int32
	outLayout vm.Layout
	outStream string
}

type vmSlot struct {
	slot int32
	kind vm.Kind
}

func newVMC() *vmc {
	return &vmc{b: vm.NewBuilder(), scopes: []map[string]vmSlot{{}}}
}

func (c *vmc) push()            { c.scopes = append(c.scopes, map[string]vmSlot{}) }
func (c *vmc) pop()             { c.scopes = c.scopes[:len(c.scopes)-1] }
func (c *vmc) alloc() (s int32) { s = c.nslots; c.nslots++; return }
func (c *vmc) bind(name string, s vmSlot) {
	c.scopes[len(c.scopes)-1][name] = s
}
func (c *vmc) lookup(name string) (vmSlot, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return vmSlot{}, false
}

// bindFields allocates the input window: one slot per attribute, in
// layout order, bound under the bare attribute names.
func (c *vmc) bindFields(tt TupleType) int32 {
	base := c.nslots
	for _, f := range tt.Fields {
		k, ok := vmKindOf(f.Type)
		if !ok || k == vm.KList {
			unsupported("attribute %s has non-scalar type %s", f.Name, f.Type)
		}
		c.bind(f.Name, vmSlot{slot: c.alloc(), kind: k})
	}
	return base
}

// tryFold emits a constant when e is built from literals and operators
// alone, evaluated through the checker's constEval (so literals,
// arithmetic on literals, folded parameters). Calls are never folded:
// spin() burns CPU per tuple by design, and folding would erase the
// burn. Names never fold either — constEval has no scope to find them
// in — and are turned away here, before it formats an error for each.
func (c *vmc) tryFold(e Expr) (vm.Kind, bool) {
	if !literalOnly(e) {
		return 0, false
	}
	v, err := constEval(e)
	if err != nil {
		return 0, false
	}
	switch v := v.(type) {
	case int64:
		c.b.ConstI(v)
		return vm.KInt, true
	case float64:
		c.b.ConstF(v)
		return vm.KFloat, true
	case string:
		c.b.ConstS(v)
		return vm.KStr, true
	case bool:
		c.b.ConstB(v)
		return vm.KBool, true
	default:
		return 0, false
	}
}

// literalOnly reports whether e contains no call and no name.
func literalOnly(e Expr) bool {
	all := func(es ...Expr) bool {
		for _, x := range es {
			if x != nil && !literalOnly(x) {
				return false
			}
		}
		return true
	}
	switch e := e.(type) {
	case *IntLit, *FloatLit, *StringLit, *BoolLit:
		return true
	case *UnaryExpr:
		return literalOnly(e.X)
	case *BinaryExpr:
		return all(e.X, e.Y)
	case *CondExpr:
		return all(e.C, e.T, e.F)
	case *IndexExpr:
		return all(e.X, e.I)
	case *SliceExpr:
		return all(e.X, e.Lo, e.Hi)
	case *ListLit:
		return all(e.Elems...)
	}
	return false
}

// expr compiles e, pushing its value, and returns its VM kind.
func (c *vmc) expr(e Expr) vm.Kind {
	if k, ok := c.tryFold(e); ok {
		return k
	}
	switch e := e.(type) {
	case *IntLit:
		c.b.ConstI(e.V)
		return vm.KInt
	case *FloatLit:
		c.b.ConstF(e.V)
		return vm.KFloat
	case *StringLit:
		c.b.ConstS(e.V)
		return vm.KStr
	case *BoolLit:
		c.b.ConstB(e.V)
		return vm.KBool
	case *Ident:
		s, ok := c.lookup(e.Name)
		if !ok {
			unsupported("identifier %s (whole-tuple or out-of-scope reference)", e.Name)
		}
		c.b.Ins(vm.OpLoad, s.slot, 0)
		return s.kind
	case *AttrExpr:
		// Only input-stream attribute access (S.x) maps onto slots;
		// the checker bound the bare field names to the same values,
		// so both spellings hit one slot.
		id, ok := e.X.(*Ident)
		if !ok {
			unsupported("attribute access on a non-stream expression")
		}
		if _, isField := c.lookup(id.Name); isField {
			unsupported("attribute access on local or field %s", id.Name)
		}
		s, ok := c.lookup(id.Name + "." + e.Name)
		if !ok {
			unsupported("attribute %s.%s", id.Name, e.Name)
		}
		c.b.Ins(vm.OpLoad, s.slot, 0)
		return s.kind
	case *UnaryExpr:
		switch e.Op {
		case NOT:
			if k := c.expr(e.X); k != vm.KBool {
				unsupported("! on %s", k)
			}
			c.b.Op(vm.OpNotB)
			return vm.KBool
		case MINUS:
			switch k := c.expr(e.X); k {
			case vm.KInt:
				c.b.Op(vm.OpNegI)
				return vm.KInt
			case vm.KFloat:
				c.b.Op(vm.OpNegF)
				return vm.KFloat
			default:
				unsupported("unary - on %s", k)
			}
		}
		unsupported("unary operator")
	case *BinaryExpr:
		return c.binary(e)
	case *CondExpr:
		if k := c.expr(e.C); k != vm.KBool {
			unsupported("?: condition is %s", k)
		}
		jf := c.b.Jump(vm.OpJumpIfFalse)
		kt := c.expr(e.T)
		jend := c.b.Jump(vm.OpJump)
		c.b.Patch(jf)
		kf := c.expr(e.F)
		c.b.Patch(jend)
		if kt != kf {
			unsupported("?: branches disagree (%s vs %s)", kt, kf)
		}
		return kt
	case *CallExpr:
		return c.call(e)
	case *IndexExpr:
		c.expr(e.X)
		c.expr(e.I)
		c.b.Op(vm.OpIndexL)
		return vm.KStr
	case *SliceExpr:
		// A missing bound is the list's own end: OpSliceL clamps.
		c.expr(e.X)
		c.bound(e.Lo, 0)
		c.bound(e.Hi, math.MaxInt64)
		c.b.Op(vm.OpSliceL)
		return vm.KList
	case *ListLit:
		strs := true
		for _, el := range e.Elems {
			strs = c.expr(el) == vm.KStr && strs
		}
		if strs {
			c.b.Ins(vm.OpMakeL, int32(len(e.Elems)), 0)
			return vm.KList
		}
	}
	unsupported("%T expression", e)
	panic("unreachable")
}

// bound compiles an optional slice bound.
func (c *vmc) bound(e Expr, missing int64) {
	if e == nil {
		c.b.ConstI(missing)
		return
	}
	c.expr(e)
}

func (c *vmc) binary(e *BinaryExpr) vm.Kind {
	switch e.Op {
	case ANDAND:
		if k := c.expr(e.X); k != vm.KBool {
			unsupported("&& on %s", k)
		}
		jf := c.b.Jump(vm.OpJumpIfFalse)
		if k := c.expr(e.Y); k != vm.KBool {
			unsupported("&& on %s", k)
		}
		jend := c.b.Jump(vm.OpJump)
		c.b.Patch(jf)
		c.b.ConstB(false)
		c.b.Patch(jend)
		return vm.KBool
	case OROR:
		if k := c.expr(e.X); k != vm.KBool {
			unsupported("|| on %s", k)
		}
		jt := c.b.Jump(vm.OpJumpIfTrue)
		if k := c.expr(e.Y); k != vm.KBool {
			unsupported("|| on %s", k)
		}
		jend := c.b.Jump(vm.OpJump)
		c.b.Patch(jt)
		c.b.ConstB(true)
		c.b.Patch(jend)
		return vm.KBool
	}
	kx := c.expr(e.X)
	ky := c.expr(e.Y)
	if kx != ky {
		unsupported("binary %v on %s and %s", e.Op, kx, ky)
	}
	type ops3 struct{ i, f, s vm.Op }
	pick := func(o ops3) vm.Op {
		switch kx {
		case vm.KInt:
			return o.i
		case vm.KFloat:
			return o.f
		case vm.KStr:
			return o.s
		}
		return vm.OpNop
	}
	var op vm.Op
	ret := kx
	switch e.Op {
	case PLUS:
		op = pick(ops3{vm.OpAddI, vm.OpAddF, vm.OpCatS})
	case MINUS:
		op = pick(ops3{i: vm.OpSubI, f: vm.OpSubF})
	case STAR:
		op = pick(ops3{i: vm.OpMulI, f: vm.OpMulF})
	case SLASH:
		op = pick(ops3{i: vm.OpDivI, f: vm.OpDivF})
	case PERCENT:
		op = pick(ops3{i: vm.OpModI})
	case LANGLE:
		op, ret = pick(ops3{vm.OpLtI, vm.OpLtF, vm.OpLtS}), vm.KBool
	case RANGLE:
		op, ret = pick(ops3{vm.OpGtI, vm.OpGtF, vm.OpGtS}), vm.KBool
	case LEQ:
		op, ret = pick(ops3{vm.OpLeI, vm.OpLeF, vm.OpLeS}), vm.KBool
	case GEQ:
		op, ret = pick(ops3{vm.OpGeI, vm.OpGeF, vm.OpGeS}), vm.KBool
	case EQ:
		if kx == vm.KBool {
			op = vm.OpEqI
		} else {
			op = pick(ops3{vm.OpEqI, vm.OpEqF, vm.OpEqS})
		}
		ret = vm.KBool
	case NEQ:
		if kx == vm.KBool {
			op = vm.OpNeI
		} else {
			op = pick(ops3{vm.OpNeI, vm.OpNeF, vm.OpNeS})
		}
		ret = vm.KBool
	default:
		unsupported("binary operator %v", e.Op)
	}
	if op == vm.OpNop {
		unsupported("binary %v on %s", e.Op, kx)
	}
	c.b.Op(op)
	return ret
}

func kindLetter(k vm.Kind) byte {
	switch k {
	case vm.KInt:
		return 'i'
	case vm.KFloat:
		return 'f'
	case vm.KStr:
		return 's'
	case vm.KList:
		return 'l'
	default:
		return 'b'
	}
}

// call lowers a builtin call to the typed implementation (builtins.go)
// matching the argument kinds — the body the closure evaluator also
// runs, registered with the VM under its mangled name by bridge_vm.go.
func (c *vmc) call(e *CallExpr) vm.Kind {
	letters := make([]byte, len(e.Args))
	for i, a := range e.Args {
		letters[i] = kindLetter(c.expr(a))
	}
	b := builtins[e.Name]
	im := b.find(letters)
	if im == nil {
		unsupported("builtin %s(%s)", e.Name, letters)
	}
	c.b.Call(im.mangled(e.Name), int32(len(e.Args)))
	return im.ret
}

// stmt compiles one statement. Statements are stack-balanced: each
// leaves the operand stack exactly as it found it.
func (c *vmc) stmt(s Stmt) {
	switch s := s.(type) {
	case *DeclStmt:
		t, err := resolveType(&s.Type, nil)
		if err != nil {
			unsupported("declared type: %v", err)
		}
		k, ok := vmKindOf(t)
		if !ok {
			unsupported("declared type %s", t)
		}
		slot := c.alloc()
		if s.Init != nil {
			if ki := c.expr(s.Init); ki != k {
				unsupported("initializer kind %s for %s", ki, k)
			}
		} else {
			c.zero(k)
		}
		c.b.Ins(vm.OpStore, slot, 0)
		c.bind(s.Name, vmSlot{slot: slot, kind: k})
	case *AssignStmt:
		id, ok := s.Target.(*Ident)
		if !ok {
			unsupported("assignment to %T", s.Target)
		}
		sl, ok := c.lookup(id.Name)
		if !ok {
			unsupported("assignment to unknown %s", id.Name)
		}
		// Input attributes are rebindable in the closure environment
		// but the stream-name alias (S.x) keeps observing the original
		// tuple there; slots cannot reproduce that split view, so
		// assignment to input attributes stays on the closure path.
		if c.isInputField(id.Name) {
			unsupported("assignment to input attribute %s", id.Name)
		}
		if k := c.expr(s.Value); k != sl.kind {
			unsupported("assignment kind %s to %s", k, sl.kind)
		}
		c.b.Ins(vm.OpStore, sl.slot, 0)
	case *IfStmt:
		if k := c.expr(s.Cond); k != vm.KBool {
			unsupported("if condition is %s", k)
		}
		jf := c.b.Jump(vm.OpJumpIfFalse)
		c.block(s.Then)
		if s.Else != nil {
			jend := c.b.Jump(vm.OpJump)
			c.b.Patch(jf)
			c.block(s.Else)
			c.b.Patch(jend)
		} else {
			c.b.Patch(jf)
		}
	case *WhileStmt:
		start := c.b.Here()
		if k := c.expr(s.Cond); k != vm.KBool {
			unsupported("while condition is %s", k)
		}
		jf := c.b.Jump(vm.OpJumpIfFalse)
		c.breaks = append(c.breaks, nil)
		c.conts = append(c.conts, start)
		c.block(s.Body)
		c.b.PatchTo(c.b.Jump(vm.OpJump), start)
		c.b.Patch(jf)
		for _, pc := range c.breaks[len(c.breaks)-1] {
			c.b.Patch(pc)
		}
		c.breaks = c.breaks[:len(c.breaks)-1]
		c.conts = c.conts[:len(c.conts)-1]
	case *BreakStmt:
		if len(c.breaks) == 0 {
			unsupported("break outside loop")
		}
		pc := c.b.Jump(vm.OpJump)
		c.breaks[len(c.breaks)-1] = append(c.breaks[len(c.breaks)-1], pc)
	case *ContinueStmt:
		if len(c.conts) == 0 {
			unsupported("continue outside loop")
		}
		c.b.PatchTo(c.b.Jump(vm.OpJump), c.conts[len(c.conts)-1])
	case *SubmitStmt:
		c.submit(s)
	case *ExprStmt:
		c.expr(s.X)
		c.b.Op(vm.OpPop)
	default:
		unsupported("%T statement", s)
	}
}

// isInputField reports whether name resolves to an input-window slot
// (bound in the outermost scope) rather than a local.
func (c *vmc) isInputField(name string) bool {
	for i := len(c.scopes) - 1; i >= 1; i-- {
		if _, ok := c.scopes[i][name]; ok {
			return false
		}
	}
	_, ok := c.scopes[0][name]
	return ok
}

func (c *vmc) zero(k vm.Kind) {
	switch k {
	case vm.KInt, vm.KBool:
		c.b.ConstI(0)
	case vm.KFloat:
		c.b.ConstF(0)
	case vm.KStr:
		c.b.ConstS("")
	case vm.KList:
		c.b.Ins(vm.OpMakeL, 0, 0)
	}
}

// submit lowers submit({a = e, ...}, Out): literal attributes are
// evaluated in source order (panic order matches the closure path),
// unnamed attributes take their zero values — the same fill the
// closure emit callback performs — then the segment emits.
func (c *vmc) submit(s *SubmitStmt) {
	if s.Stream != c.outStream {
		unsupported("submit to %s", s.Stream)
	}
	idx := map[string]int{}
	for i, f := range c.outLayout.Fields {
		idx[f.Name] = i
	}
	seen := map[string]bool{}
	for i, name := range s.Tuple.Names {
		fi, ok := idx[name]
		if !ok || seen[name] {
			unsupported("submit attribute %s", name)
		}
		seen[name] = true
		if k := c.expr(s.Tuple.Values[i]); k != c.outLayout.Fields[fi].Kind {
			unsupported("submit attribute %s kind %s", name, k)
		}
		c.b.Ins(vm.OpStore, c.outBase+int32(fi), 0)
	}
	for fi, f := range c.outLayout.Fields {
		if !seen[f.Name] {
			c.zero(f.Kind)
			c.b.Ins(vm.OpStore, c.outBase+int32(fi), 0)
		}
	}
	c.b.Op(vm.OpEmit)
}

func (c *vmc) block(blk *Block) {
	c.push()
	for _, s := range blk.Stmts {
		c.stmt(s)
	}
	c.pop()
}

// compile runs fn, converting errVMUnsupported panics into a nil
// program — the closure-fallback signal.
func compileVM(fn func() (*vm.Program, error)) *vm.Program {
	var p *vm.Program
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(errVMUnsupported); ok {
					p = nil
					err = nil
					return
				}
				panic(r)
			}
		}()
		p, err = fn()
	}()
	if err != nil {
		return nil
	}
	return p
}

// compileFilterVM compiles a Filter predicate into a forwarding
// program: out window aliases in window, a false predicate drops.
func compileFilterVM(name string, pred Expr, in TupleType) *vm.Program {
	return compileVM(func() (*vm.Program, error) {
		layout, ok := vmLayoutOf(in)
		if !ok {
			return nil, nil
		}
		c := newVMC()
		base := c.bindFields(in)
		if k := c.expr(pred); k != vm.KBool {
			unsupported("predicate kind %s", k)
		}
		jf := c.b.Jump(vm.OpJumpIfFalse)
		c.b.Op(vm.OpEmit)
		c.b.Patch(jf)
		n := int32(len(in.Fields))
		return c.b.Finish(vm.Seg{
			InBase: base, NIn: n, OutBase: base, NOut: n,
			Name: name, Out: layout,
		}, layout, c.nslots)
	})
}

// compileCustomVM compiles a stateless single-input single-output
// Custom operator's onTuple block into a fresh-emitting program.
func compileCustomVM(name string, blk *Block, in TupleType, inName string, out TupleType, outStream string) *vm.Program {
	return compileVM(func() (*vm.Program, error) {
		inLayout, ok := vmLayoutOf(in)
		if !ok {
			return nil, nil
		}
		outLayout, ok := vmLayoutOf(out)
		if !ok {
			return nil, nil
		}
		for _, f := range in.Fields {
			if f.Name == inName {
				// The stream-name alias shadows a field; the closure
				// scope would resolve the name to the whole tuple.
				unsupported("stream name %s collides with an attribute", inName)
			}
		}
		c := newVMC()
		inBase := c.bindFields(in)
		// Stream-qualified access (S.x) resolves to the same slots.
		for _, f := range in.Fields {
			s, _ := c.lookup(f.Name)
			c.bind(inName+"."+f.Name, s)
		}
		c.outBase = c.nslots
		for range out.Fields {
			c.alloc()
		}
		c.outLayout = outLayout
		c.outStream = outStream
		c.block(blk)
		return c.b.Finish(vm.Seg{
			InBase: inBase, NIn: int32(len(in.Fields)),
			OutBase: c.outBase, NOut: int32(len(out.Fields)),
			Fresh: true, Name: name, Out: outLayout,
		}, inLayout, c.nslots)
	})
}

// compileWorkVM compiles a Work operator: burn the configured flop
// cost (seeded by the tuple's sequence number, like the closure path)
// and forward.
func compileWorkVM(name string, cost int, typ TupleType) *vm.Program {
	return compileVM(func() (*vm.Program, error) {
		layout, ok := vmLayoutOf(typ)
		if !ok {
			return nil, nil
		}
		c := newVMC()
		base := c.bindFields(typ)
		if cost > 0 {
			c.b.ConstI(int64(cost))
			c.b.Ins(vm.OpLoadSeq, 0, 0)
			c.b.Call("spin.work:ii", 2)
			c.b.Op(vm.OpPop)
		}
		c.b.Op(vm.OpEmit)
		n := int32(len(typ.Fields))
		return c.b.Finish(vm.Seg{
			InBase: base, NIn: n, OutBase: base, NOut: n,
			Name: name, Out: layout,
		}, layout, c.nslots)
	})
}

// compileExprVM wraps a bare checked expression as a fresh program
// with one output attribute "r" — the harness the differential test
// drives, and the shape parameter folding reuses.
func compileExprVM(e Expr, in TupleType, inName string) *vm.Program {
	return compileVM(func() (*vm.Program, error) {
		inLayout, ok := vmLayoutOf(in)
		if !ok {
			return nil, nil
		}
		c := newVMC()
		inBase := c.bindFields(in)
		if inName != "" {
			for _, f := range in.Fields {
				s, _ := c.lookup(f.Name)
				c.bind(inName+"."+f.Name, s)
			}
		}
		outSlot := c.alloc()
		k := c.expr(e)
		c.b.Ins(vm.OpStore, outSlot, 0)
		c.b.Op(vm.OpEmit)
		return c.b.Finish(vm.Seg{
			InBase: inBase, NIn: int32(len(in.Fields)),
			OutBase: outSlot, NOut: 1,
			Fresh: true, Name: "expr",
			Out: vm.Layout{Fields: []vm.Field{{Name: "r", Kind: k}}},
		}, inLayout, c.nslots)
	})
}
