package spl

import "fmt"

// The expression/statement checker and the tree-walking interpreter for
// Custom logic blocks and Filter predicates. Checking happens during
// lowering, once per composite instantiation, so input stream types are
// concrete (composites are checked monomorphically, like templates).

// cscope is a lexical scope for checking.
type cscope struct {
	parent *cscope
	vars   map[string]Type
	mut    map[string]bool
}

func newScope(parent *cscope) *cscope {
	return &cscope{parent: parent, vars: map[string]Type{}, mut: map[string]bool{}}
}

func (s *cscope) lookup(name string) (Type, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if t, ok := sc.vars[name]; ok {
			return t, true
		}
	}
	return nil, false
}

func (s *cscope) mutable(name string) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.vars[name]; ok {
			return sc.mut[name]
		}
	}
	return false
}

func (s *cscope) define(pos Pos, name string, t Type, mutable bool) error {
	if _, exists := s.vars[name]; exists {
		return errf(pos, "%q already declared in this scope", name)
	}
	s.vars[name] = t
	s.mut[name] = mutable
	return nil
}

// blockCtx carries the submit targets available to a logic block and
// the checker's loop nesting depth (for break/continue).
type blockCtx struct {
	named map[string]TupleType // visible named types
	outs  map[string]TupleType // stream name → type, legal submit targets
	loops int
}

// checkExpr computes the type of e under scope sc.
func checkExpr(e Expr, sc *cscope) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return Int64, nil
	case *FloatLit:
		return Float64, nil
	case *StringLit:
		return RString, nil
	case *BoolLit:
		return Boolean, nil
	case *Ident:
		t, ok := sc.lookup(x.Name)
		if !ok {
			return nil, errf(x.Pos, "undefined name %q", x.Name)
		}
		return t, nil
	case *AttrExpr:
		bt, err := checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		tt, ok := bt.(TupleType)
		if !ok {
			return nil, errf(x.Pos, "attribute access on non-tuple type %s", bt)
		}
		ft, ok := tt.Field(x.Name)
		if !ok {
			return nil, errf(x.Pos, "type %s has no attribute %q", tt, x.Name)
		}
		return ft, nil
	case *IndexExpr:
		bt, err := checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		lt, ok := bt.(ListType)
		if !ok {
			return nil, errf(x.Pos, "indexing non-list type %s", bt)
		}
		it, err := checkExpr(x.I, sc)
		if err != nil {
			return nil, err
		}
		if !isInt(it) {
			return nil, errf(x.Pos, "index has type %s, want an integer", it)
		}
		return lt.Elem, nil
	case *SliceExpr:
		bt, err := checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if _, ok := bt.(ListType); !ok {
			return nil, errf(x.Pos, "slicing non-list type %s", bt)
		}
		for _, b := range []Expr{x.Lo, x.Hi} {
			if b == nil {
				continue
			}
			it, err := checkExpr(b, sc)
			if err != nil {
				return nil, err
			}
			if !isInt(it) {
				return nil, errf(x.Pos, "slice bound has type %s, want an integer", it)
			}
		}
		return bt, nil
	case *ListLit:
		if len(x.Elems) == 0 {
			return nil, errf(x.Pos, "cannot infer the type of an empty list literal")
		}
		et, err := checkExpr(x.Elems[0], sc)
		if err != nil {
			return nil, err
		}
		if et.equal(Int32) {
			et = Int64
		}
		for _, el := range x.Elems[1:] {
			t, err := checkExpr(el, sc)
			if err != nil {
				return nil, err
			}
			if !assignable(et, t) {
				return nil, errf(el.P(), "list element has type %s, want %s", t, et)
			}
		}
		return ListType{Elem: et}, nil
	case *CallExpr:
		b, ok := builtins[x.Name]
		if !ok {
			return nil, errf(x.Pos, "unknown function %q", x.Name)
		}
		args := make([]Type, len(x.Args))
		for i, a := range x.Args {
			t, err := checkExpr(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		t, err := b.check(x.Pos, args)
		if err != nil {
			return nil, errf(x.Pos, "%s: %v", x.Name, err.(*Error).Msg)
		}
		return t, nil
	case *UnaryExpr:
		t, err := checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case NOT:
			if !t.equal(Boolean) {
				return nil, errf(x.Pos, "operand of ! has type %s, want boolean", t)
			}
			return Boolean, nil
		case MINUS:
			if !isInt(t) && !t.equal(Float64) {
				return nil, errf(x.Pos, "operand of unary - has type %s, want a number", t)
			}
			return t, nil
		}
		return nil, errf(x.Pos, "unsupported unary operator %v", x.Op)
	case *BinaryExpr:
		lt, err := checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		rt, err := checkExpr(x.Y, sc)
		if err != nil {
			return nil, err
		}
		numeric := func() (Type, error) {
			switch {
			case isInt(lt) && isInt(rt):
				return Int64, nil
			case lt.equal(Float64) && rt.equal(Float64):
				return Float64, nil
			default:
				return nil, errf(x.Pos, "operands of %v have types %s and %s", x.Op, lt, rt)
			}
		}
		switch x.Op {
		case PLUS:
			if lt.equal(RString) && rt.equal(RString) {
				return RString, nil
			}
			return numeric()
		case MINUS, STAR, SLASH:
			return numeric()
		case PERCENT:
			if isInt(lt) && isInt(rt) {
				return Int64, nil
			}
			return nil, errf(x.Pos, "operands of %% have types %s and %s, want integers", lt, rt)
		case LANGLE, RANGLE, LEQ, GEQ:
			ok := (isInt(lt) && isInt(rt)) ||
				(lt.equal(Float64) && rt.equal(Float64)) ||
				(lt.equal(RString) && rt.equal(RString))
			if !ok {
				return nil, errf(x.Pos, "cannot order %s and %s", lt, rt)
			}
			return Boolean, nil
		case EQ, NEQ:
			if !assignable(lt, rt) && !assignable(rt, lt) {
				return nil, errf(x.Pos, "cannot compare %s and %s", lt, rt)
			}
			return Boolean, nil
		case ANDAND, OROR:
			if !lt.equal(Boolean) || !rt.equal(Boolean) {
				return nil, errf(x.Pos, "operands of %v have types %s and %s, want booleans", x.Op, lt, rt)
			}
			return Boolean, nil
		}
		return nil, errf(x.Pos, "unsupported binary operator %v", x.Op)
	case *CondExpr:
		ct, err := checkExpr(x.C, sc)
		if err != nil {
			return nil, err
		}
		if !ct.equal(Boolean) {
			return nil, errf(x.Pos, "ternary condition has type %s, want boolean", ct)
		}
		tt, err := checkExpr(x.T, sc)
		if err != nil {
			return nil, err
		}
		ft, err := checkExpr(x.F, sc)
		if err != nil {
			return nil, err
		}
		switch {
		case assignable(tt, ft):
			return tt, nil
		case assignable(ft, tt):
			return ft, nil
		default:
			return nil, errf(x.Pos, "ternary branches have incompatible types %s and %s", tt, ft)
		}
	case *TupleLit:
		return nil, errf(x.Pos, "tuple literals may only appear as the first argument of submit")
	default:
		return nil, errf(e.P(), "unsupported expression %T", e)
	}
}

// checkBlock checks a statement block under the given scope and context.
func checkBlock(b *Block, sc *cscope, ctx *blockCtx) error {
	for _, st := range b.Stmts {
		if err := checkStmt(st, sc, ctx); err != nil {
			return err
		}
	}
	return nil
}

func checkStmt(st Stmt, sc *cscope, ctx *blockCtx) error {
	switch s := st.(type) {
	case *DeclStmt:
		dt, err := resolveType(&s.Type, ctx.named)
		if err != nil {
			return err
		}
		// Allow an empty list literal only where a declared list type
		// provides the element type.
		if ll, ok := s.Init.(*ListLit); ok && len(ll.Elems) == 0 {
			if _, isList := dt.(ListType); isList {
				return sc.define(s.Pos, s.Name, dt, s.Mutable)
			}
		}
		it, err := checkExpr(s.Init, sc)
		if err != nil {
			return err
		}
		if !assignable(dt, it) {
			return errf(s.Pos, "cannot initialize %s %q with %s", dt, s.Name, it)
		}
		return sc.define(s.Pos, s.Name, dt, s.Mutable)
	case *AssignStmt:
		root, err := assignRoot(s.Target)
		if err != nil {
			return err
		}
		if _, ok := sc.lookup(root.Name); !ok {
			return errf(root.Pos, "undefined name %q", root.Name)
		}
		if !sc.mutable(root.Name) {
			return errf(s.Pos, "cannot assign to %q: declare it 'mutable'", root.Name)
		}
		tt, err := checkExpr(s.Target, sc)
		if err != nil {
			return err
		}
		vt, err := checkExpr(s.Value, sc)
		if err != nil {
			return err
		}
		if !assignable(tt, vt) {
			return errf(s.Pos, "cannot assign %s to %s", vt, tt)
		}
		return nil
	case *IfStmt:
		ct, err := checkExpr(s.Cond, sc)
		if err != nil {
			return err
		}
		if !ct.equal(Boolean) {
			return errf(s.Pos, "if condition has type %s, want boolean", ct)
		}
		if err := checkBlock(s.Then, newScope(sc), ctx); err != nil {
			return err
		}
		if s.Else != nil {
			return checkBlock(s.Else, newScope(sc), ctx)
		}
		return nil
	case *SubmitStmt:
		ot, ok := ctx.outs[s.Stream]
		if !ok {
			return errf(s.Pos, "submit target %q is not an output stream of this operator", s.Stream)
		}
		seen := map[string]bool{}
		for i, name := range s.Tuple.Names {
			ft, ok := ot.Field(name)
			if !ok {
				return errf(s.Tuple.Values[i].P(), "output type of %q has no attribute %q", s.Stream, name)
			}
			if seen[name] {
				return errf(s.Tuple.Values[i].P(), "duplicate attribute %q in tuple literal", name)
			}
			seen[name] = true
			vt, err := checkExpr(s.Tuple.Values[i], sc)
			if err != nil {
				return err
			}
			if !assignable(ft, vt) {
				return errf(s.Tuple.Values[i].P(), "attribute %q has type %s, want %s", name, vt, ft)
			}
		}
		return nil
	case *ExprStmt:
		if _, ok := s.X.(*CallExpr); !ok {
			return errf(s.Pos, "expression statement must be a function call")
		}
		_, err := checkExpr(s.X, sc)
		return err
	case *WhileStmt:
		ct, err := checkExpr(s.Cond, sc)
		if err != nil {
			return err
		}
		if !ct.equal(Boolean) {
			return errf(s.Pos, "while condition has type %s, want boolean", ct)
		}
		ctx.loops++
		err = checkBlock(s.Body, newScope(sc), ctx)
		ctx.loops--
		return err
	case *BreakStmt:
		if ctx.loops == 0 {
			return errf(s.Pos, "break outside a loop")
		}
		return nil
	case *ContinueStmt:
		if ctx.loops == 0 {
			return errf(s.Pos, "continue outside a loop")
		}
		return nil
	default:
		return errf(st.P(), "unsupported statement %T", st)
	}
}

// assignRoot finds the identifier at the base of an assignment target.
func assignRoot(e Expr) (*Ident, error) {
	switch x := e.(type) {
	case *Ident:
		return x, nil
	case *IndexExpr:
		return assignRoot(x.X)
	case *AttrExpr:
		return assignRoot(x.X)
	default:
		return nil, errf(e.P(), "invalid assignment target")
	}
}

// ----- Interpreter -----

// renv is a runtime environment.
type renv struct {
	parent *renv
	vars   map[string]Value
}

func newEnv(parent *renv) *renv { return &renv{parent: parent, vars: map[string]Value{}} }

func (e *renv) lookup(name string) (Value, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *renv) set(name string, v Value) {
	for env := e; env != nil; env = env.parent {
		if _, ok := env.vars[name]; ok {
			env.vars[name] = v
			return
		}
	}
	e.vars[name] = v
}

// eval evaluates a checked expression. It panics with *RuntimeError on
// execution faults (bad index, division by zero), which — as in the
// product, where an operator exception terminates the PE — propagate out
// of the operator.
func eval(e Expr, env *renv) Value {
	switch x := e.(type) {
	case *IntLit:
		return x.V
	case *FloatLit:
		return x.V
	case *StringLit:
		return x.V
	case *BoolLit:
		return x.V
	case *Ident:
		v, ok := env.lookup(x.Name)
		if !ok {
			panic(rtErrf(x.Pos, "undefined name %q", x.Name))
		}
		return v
	case *AttrExpr:
		tv := eval(x.X, env).(Tup)
		return tv[x.Name]
	case *IndexExpr:
		l := eval(x.X, env).([]Value)
		i := eval(x.I, env).(int64)
		if i < 0 || i >= int64(len(l)) {
			panic(rtErrf(x.Pos, "index %d out of range for list of %d", i, len(l)))
		}
		return l[i]
	case *SliceExpr:
		l := eval(x.X, env).([]Value)
		lo, hi := int64(0), int64(len(l))
		if x.Lo != nil {
			lo = eval(x.Lo, env).(int64)
		}
		if x.Hi != nil {
			hi = eval(x.Hi, env).(int64)
		}
		// Clamp, mirroring SPL's tolerant slicing of short lists.
		lo = min(max(lo, 0), int64(len(l)))
		hi = min(max(hi, lo), int64(len(l)))
		out := make([]Value, hi-lo)
		copy(out, l[lo:hi])
		return out
	case *ListLit:
		out := make([]Value, len(x.Elems))
		for i, el := range x.Elems {
			out[i] = eval(el, env)
		}
		return out
	case *CallExpr:
		b := builtins[x.Name]
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			args[i] = eval(a, env)
		}
		return b.call(args)
	case *UnaryExpr:
		v := eval(x.X, env)
		switch x.Op {
		case NOT:
			return !v.(bool)
		case MINUS:
			switch n := v.(type) {
			case int64:
				return -n
			case float64:
				return -n
			}
		}
		panic(rtErrf(x.Pos, "bad unary operand"))
	case *BinaryExpr:
		return evalBinary(x, env)
	case *CondExpr:
		if eval(x.C, env).(bool) {
			return eval(x.T, env)
		}
		return eval(x.F, env)
	default:
		panic(rtErrf(e.P(), "unsupported expression %T", e))
	}
}

func evalBinary(x *BinaryExpr, env *renv) Value {
	// Short-circuit logic first.
	switch x.Op {
	case ANDAND:
		return eval(x.X, env).(bool) && eval(x.Y, env).(bool)
	case OROR:
		return eval(x.X, env).(bool) || eval(x.Y, env).(bool)
	}
	l, r := eval(x.X, env), eval(x.Y, env)
	switch x.Op {
	case EQ:
		return valueEq(l, r)
	case NEQ:
		return !valueEq(l, r)
	}
	switch lv := l.(type) {
	case int64:
		rv := r.(int64)
		switch x.Op {
		case PLUS:
			return lv + rv
		case MINUS:
			return lv - rv
		case STAR:
			return lv * rv
		case SLASH:
			if rv == 0 {
				panic(rtErrf(x.Pos, "integer division by zero"))
			}
			return lv / rv
		case PERCENT:
			if rv == 0 {
				panic(rtErrf(x.Pos, "integer modulo by zero"))
			}
			return lv % rv
		case LANGLE:
			return lv < rv
		case RANGLE:
			return lv > rv
		case LEQ:
			return lv <= rv
		case GEQ:
			return lv >= rv
		}
	case float64:
		rv := r.(float64)
		switch x.Op {
		case PLUS:
			return lv + rv
		case MINUS:
			return lv - rv
		case STAR:
			return lv * rv
		case SLASH:
			return lv / rv
		case LANGLE:
			return lv < rv
		case RANGLE:
			return lv > rv
		case LEQ:
			return lv <= rv
		case GEQ:
			return lv >= rv
		}
	case string:
		rv := r.(string)
		switch x.Op {
		case PLUS:
			return lv + rv
		case LANGLE:
			return lv < rv
		case RANGLE:
			return lv > rv
		case LEQ:
			return lv <= rv
		case GEQ:
			return lv >= rv
		}
	}
	panic(rtErrf(x.Pos, "bad binary operands %s %v %s", formatValue(l), x.Op, formatValue(r)))
}

// ctrl is a statement's control-flow outcome.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
)

// execBlock runs a checked statement block. submit delivers a completed
// tuple to a named output stream. The return value propagates break and
// continue out of nested blocks to the innermost loop.
func execBlock(b *Block, env *renv, submit func(stream string, tv Tup)) ctrl {
	for _, st := range b.Stmts {
		if c := execStmt(st, env, submit); c != ctrlNone {
			return c
		}
	}
	return ctrlNone
}

func execStmt(st Stmt, env *renv, submit func(string, Tup)) ctrl {
	switch s := st.(type) {
	case *DeclStmt:
		if ll, ok := s.Init.(*ListLit); ok && len(ll.Elems) == 0 {
			env.vars[s.Name] = []Value(nil)
			return ctrlNone
		}
		env.vars[s.Name] = eval(s.Init, env)
	case *AssignStmt:
		assignTo(s.Target, eval(s.Value, env), env)
	case *IfStmt:
		if eval(s.Cond, env).(bool) {
			return execBlock(s.Then, newEnv(env), submit)
		} else if s.Else != nil {
			return execBlock(s.Else, newEnv(env), submit)
		}
	case *WhileStmt:
		for eval(s.Cond, env).(bool) {
			if c := execBlock(s.Body, newEnv(env), submit); c == ctrlBreak {
				break
			}
		}
	case *BreakStmt:
		return ctrlBreak
	case *ContinueStmt:
		return ctrlContinue
	case *SubmitStmt:
		tv := Tup{}
		for i, name := range s.Tuple.Names {
			tv[name] = eval(s.Tuple.Values[i], env)
		}
		submit(s.Stream, tv)
	case *ExprStmt:
		eval(s.X, env)
	default:
		panic(rtErrf(st.P(), "unsupported statement %T", st))
	}
	return ctrlNone
}

// assignTo writes v through an assignment target, copying aggregates on
// write so shared values stay immutable.
func assignTo(target Expr, v Value, env *renv) {
	switch t := target.(type) {
	case *Ident:
		env.set(t.Name, v)
	case *IndexExpr:
		base := eval(t.X, env).([]Value)
		i := eval(t.I, env).(int64)
		if i < 0 || i >= int64(len(base)) {
			panic(rtErrf(t.Pos, "index %d out of range for list of %d", i, len(base)))
		}
		cp := make([]Value, len(base))
		copy(cp, base)
		cp[i] = v
		assignTo(t.X, cp, env)
	case *AttrExpr:
		base := eval(t.X, env).(Tup)
		cp := Tup{}
		for k, val := range base {
			cp[k] = val
		}
		cp[t.Name] = v
		assignTo(t.X, cp, env)
	default:
		panic(rtErrf(target.P(), "invalid assignment target %T", target))
	}
}

// constEval evaluates a compile-time-constant expression (operator
// parameters). It returns an error instead of panicking.
func constEval(e Expr) (v Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = fmt.Errorf("%s", re.Error())
				return
			}
			panic(r)
		}
	}()
	empty := newEnv(nil)
	if _, cerr := checkExpr(e, newScope(nil)); cerr != nil {
		return nil, cerr
	}
	return eval(e, empty), nil
}
