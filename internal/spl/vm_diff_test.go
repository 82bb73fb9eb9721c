package spl

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"streams/internal/pe"
	"streams/internal/tuple"
	"streams/internal/vm"
)

// Differential test between the two expression dispatch forms: the
// closure evaluator (eval in check.go) and the bytecode VM
// (compileExprVM + vm.Machine). On every expression the VM accepts, the
// two must agree exactly — same value, or a fault on both sides, where
// a VM fault is a contained operator fault (*vm.Error or the builtins'
// *RuntimeError, never a Go runtime panic) that leaves the machine
// reusable. The generator only produces constructs inside the VM's
// documented subset — scalars and lists of strings — so a compilation
// fall-back here is itself a bug.

// diffInType is the input tuple type the generated expressions range
// over: two attributes per scalar kind, so binary operators can mix
// attributes and literals of matching kinds.
var diffInType = TupleType{Fields: []TField{
	{Name: "a", Type: Int64},
	{Name: "b", Type: Int64},
	{Name: "f", Type: Float64},
	{Name: "g", Type: Float64},
	{Name: "s", Type: RString},
	{Name: "t", Type: RString},
	{Name: "p", Type: Boolean},
	{Name: "q", Type: Boolean},
}}

var diffFields = map[vm.Kind][]string{
	vm.KInt:   {"a", "b"},
	vm.KFloat: {"f", "g"},
	vm.KStr:   {"s", "t"},
	vm.KBool:  {"p", "q"},
}

// Literal pools. Zeros and short strings are deliberately common: they
// drive the error paths (division by zero, substring out of range,
// toInt parse failures) the two evaluators must agree on too.
var (
	diffInts    = []int64{-3, -1, 0, 0, 1, 2, 7, 100}
	diffFloats  = []float64{-2.5, -1, 0, 0, 0.5, 1, 3.75, 1e6}
	diffStrings = []string{"", "a", "abc", "héllo", "42", "-7", "3.5", "xyzzy",
		"a b  c", " lead,trail, ", "uid=0 euid=1 tty=ssh rhost=h user=u", "uid=7 euid=7 tty=x rhost=", "α;β;;γ"}
	diffDelims = []string{" ", ",", "; ", "", "β,"}
)

func diffLit(r *rand.Rand, k vm.Kind) Expr {
	switch k {
	case vm.KInt:
		return &IntLit{V: diffInts[r.Intn(len(diffInts))]}
	case vm.KFloat:
		return &FloatLit{V: diffFloats[r.Intn(len(diffFloats))]}
	case vm.KStr:
		return &StringLit{V: diffStrings[r.Intn(len(diffStrings))]}
	default:
		return &BoolLit{V: r.Intn(2) == 0}
	}
}

// genList produces a random list<rstring> expression: the two builtins
// that make lists, literals, slices with in-range, out-of-range,
// negative and missing bounds, and conditionals over all of those.
func genList(r *rand.Rand, depth int) Expr {
	d := depth - 1
	if depth <= 0 {
		d = 0
	}
	switch n := r.Intn(6); {
	case n == 0 && depth > 0:
		x := &SliceExpr{X: genList(r, d)}
		if r.Intn(4) > 0 {
			x.Lo = genExpr(r, vm.KInt, d)
		}
		if r.Intn(4) > 0 {
			x.Hi = genExpr(r, vm.KInt, d)
		}
		return x
	case n == 1 && depth > 0:
		return &CondExpr{C: genExpr(r, vm.KBool, d), T: genList(r, d), F: genList(r, d)}
	case n == 2:
		return &CallExpr{Name: "parseMsg", Args: []Expr{genExpr(r, vm.KStr, d)}}
	case n == 3:
		elems := make([]Expr, 1+r.Intn(3))
		for i := range elems {
			elems[i] = genExpr(r, vm.KStr, d)
		}
		return &ListLit{Elems: elems}
	default:
		return &CallExpr{Name: "tokenize", Args: []Expr{
			genExpr(r, vm.KStr, d),
			&StringLit{V: diffDelims[r.Intn(len(diffDelims))]},
			genExpr(r, vm.KBool, d),
		}}
	}
}

// diffLeaf is a literal, a bare attribute reference, or the
// stream-qualified spelling of the same attribute (S.x) — the three
// ways a value enters an expression.
func diffLeaf(r *rand.Rand, k vm.Kind) Expr {
	switch r.Intn(3) {
	case 0:
		return diffLit(r, k)
	case 1:
		return &Ident{Name: diffFields[k][r.Intn(2)]}
	default:
		return &AttrExpr{X: &Ident{Name: "S"}, Name: diffFields[k][r.Intn(2)]}
	}
}

// genExpr produces a random well-typed expression of VM kind k with at
// most depth levels of nesting, drawn from the full supported surface:
// typed arithmetic, comparisons, equality, short-circuit logic,
// conditionals, and the whitelisted builtins (including the panicking
// edges of substring and toInt, and the deliberately unfoldable spin).
func genExpr(r *rand.Rand, k vm.Kind, depth int) Expr {
	if depth <= 0 {
		return diffLeaf(r, k)
	}
	d := depth - 1
	switch k {
	case vm.KInt:
		switch r.Intn(8) {
		case 7:
			return &CallExpr{Name: "size", Args: []Expr{genList(r, d)}}
		case 0:
			op := []Kind{PLUS, MINUS, STAR, SLASH, PERCENT}[r.Intn(5)]
			return &BinaryExpr{Op: op, X: genExpr(r, k, d), Y: genExpr(r, k, d)}
		case 1:
			return &UnaryExpr{Op: MINUS, X: genExpr(r, k, d)}
		case 2:
			return &CondExpr{C: genExpr(r, vm.KBool, d), T: genExpr(r, k, d), F: genExpr(r, k, d)}
		case 3:
			return &CallExpr{Name: "length", Args: []Expr{genExpr(r, vm.KStr, d)}}
		case 4:
			return &CallExpr{Name: "findFirst", Args: []Expr{genExpr(r, vm.KStr, d), genExpr(r, vm.KStr, d), genExpr(r, vm.KInt, d)}}
		case 5:
			return &CallExpr{Name: "toInt", Args: []Expr{genExpr(r, vm.KStr, d)}}
		default:
			return &BinaryExpr{Op: PLUS, X: genExpr(r, k, d), Y: genExpr(r, k, d)}
		}
	case vm.KFloat:
		switch r.Intn(6) {
		case 0:
			op := []Kind{PLUS, MINUS, STAR, SLASH}[r.Intn(4)]
			return &BinaryExpr{Op: op, X: genExpr(r, k, d), Y: genExpr(r, k, d)}
		case 1:
			return &UnaryExpr{Op: MINUS, X: genExpr(r, k, d)}
		case 2:
			return &CondExpr{C: genExpr(r, vm.KBool, d), T: genExpr(r, k, d), F: genExpr(r, k, d)}
		case 3:
			return &CallExpr{Name: "toFloat64", Args: []Expr{genExpr(r, vm.KInt, d)}}
		case 4:
			// spin burns real CPU: keep the argument a small literal.
			return &CallExpr{Name: "spin", Args: []Expr{&IntLit{V: r.Int63n(4)}}}
		default:
			return &CallExpr{Name: "toFloat64", Args: []Expr{genExpr(r, vm.KFloat, d)}}
		}
	case vm.KStr:
		switch r.Intn(9) {
		case 6:
			return &IndexExpr{X: genList(r, d), I: genExpr(r, vm.KInt, d)}
		case 7:
			return &CallExpr{Name: "flatten", Args: []Expr{genList(r, d)}}
		case 8:
			return &CallExpr{Name: "toString", Args: []Expr{genList(r, d)}}
		case 0:
			return &BinaryExpr{Op: PLUS, X: genExpr(r, k, d), Y: genExpr(r, k, d)}
		case 1:
			return &CondExpr{C: genExpr(r, vm.KBool, d), T: genExpr(r, k, d), F: genExpr(r, k, d)}
		case 2:
			name := []string{"lower", "upper"}[r.Intn(2)]
			return &CallExpr{Name: name, Args: []Expr{genExpr(r, k, d)}}
		case 3:
			return &CallExpr{Name: "substring", Args: []Expr{genExpr(r, vm.KStr, d), genExpr(r, vm.KInt, d), genExpr(r, vm.KInt, d)}}
		case 4:
			arg := []vm.Kind{vm.KInt, vm.KFloat, vm.KStr, vm.KBool}[r.Intn(4)]
			return &CallExpr{Name: "toString", Args: []Expr{genExpr(r, arg, d)}}
		default:
			return &BinaryExpr{Op: PLUS, X: genExpr(r, k, d), Y: genExpr(r, k, d)}
		}
	default: // bool
		switch r.Intn(6) {
		case 0:
			ok := []vm.Kind{vm.KInt, vm.KFloat, vm.KStr}[r.Intn(3)]
			op := []Kind{LANGLE, RANGLE, LEQ, GEQ}[r.Intn(4)]
			return &BinaryExpr{Op: op, X: genExpr(r, ok, d), Y: genExpr(r, ok, d)}
		case 1:
			ok := []vm.Kind{vm.KInt, vm.KFloat, vm.KStr, vm.KBool}[r.Intn(4)]
			op := []Kind{EQ, NEQ}[r.Intn(2)]
			return &BinaryExpr{Op: op, X: genExpr(r, ok, d), Y: genExpr(r, ok, d)}
		case 2:
			op := []Kind{ANDAND, OROR}[r.Intn(2)]
			return &BinaryExpr{Op: op, X: genExpr(r, k, d), Y: genExpr(r, k, d)}
		case 3:
			return &UnaryExpr{Op: NOT, X: genExpr(r, k, d)}
		case 4:
			return &CondExpr{C: genExpr(r, k, d), T: genExpr(r, k, d), F: genExpr(r, k, d)}
		default:
			return &UnaryExpr{Op: NOT, X: genExpr(r, k, d)}
		}
	}
}

func exprStr(e Expr) string {
	switch x := e.(type) {
	case *IntLit:
		return fmt.Sprint(x.V)
	case *FloatLit:
		return fmt.Sprintf("%g", x.V)
	case *StringLit:
		return fmt.Sprintf("%q", x.V)
	case *BoolLit:
		return fmt.Sprint(x.V)
	case *Ident:
		return x.Name
	case *AttrExpr:
		return exprStr(x.X) + "." + x.Name
	case *UnaryExpr:
		return fmt.Sprintf("(%v %s)", x.Op, exprStr(x.X))
	case *BinaryExpr:
		return fmt.Sprintf("(%s %v %s)", exprStr(x.X), x.Op, exprStr(x.Y))
	case *CondExpr:
		return fmt.Sprintf("(%s ? %s : %s)", exprStr(x.C), exprStr(x.T), exprStr(x.F))
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", exprStr(x.X), exprStr(x.I))
	case *SliceExpr:
		lo, hi := "", ""
		if x.Lo != nil {
			lo = exprStr(x.Lo)
		}
		if x.Hi != nil {
			hi = exprStr(x.Hi)
		}
		return fmt.Sprintf("%s[%s:%s]", exprStr(x.X), lo, hi)
	case *ListLit:
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = exprStr(el)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *CallExpr:
		s := x.Name + "("
		for i, a := range x.Args {
			if i > 0 {
				s += ", "
			}
			s += exprStr(a)
		}
		return s + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

func randTup(r *rand.Rand) Tup {
	return Tup{
		"a": diffInts[r.Intn(len(diffInts))],
		"b": diffInts[r.Intn(len(diffInts))],
		"f": diffFloats[r.Intn(len(diffFloats))],
		"g": diffFloats[r.Intn(len(diffFloats))],
		"s": diffStrings[r.Intn(len(diffStrings))],
		"t": diffStrings[r.Intn(len(diffStrings))],
		"p": r.Intn(2) == 0,
		"q": r.Intn(2) == 0,
	}
}

// runClosureExpr evaluates e in the closure evaluator over in.
func runClosureExpr(e Expr, in Tup) (out Value, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	env := newEnv(nil)
	for k, v := range in {
		env.vars[k] = v
	}
	env.vars["S"] = in
	return eval(e, env), false
}

// diffMachine is the one machine every differential run shares, so each
// run after a faulting one also checks that a fault leaves the machine
// reusable.
var diffMachine vm.Machine

// runVMExpr pushes in through the compiled program and reads back the
// single output attribute. A fault must be a contained operator fault.
func runVMExpr(p *vm.Program, in Tup) (out Value, panicked bool) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *vm.Error, *RuntimeError:
			panicked = true
		default:
			panic(r)
		}
	}()
	m := &diffMachine
	var got Tup
	m.Run(p, tuple.Tuple{Ref: in}, vm.EmitFunc(func(o tuple.Tuple) {
		got = refTup(o.Ref)
	}))
	return got["r"], false
}

// sameValue compares two same-typed scalar results, treating NaN as
// equal to NaN (float division can produce it on both paths).
func sameValue(a, b Value) bool {
	if af, ok := a.(float64); ok {
		bf, ok := b.(float64)
		return ok && (af == bf || (math.IsNaN(af) && math.IsNaN(bf)))
	}
	return a == b
}

func diffOne(t *testing.T, e Expr, p *vm.Program, in Tup) (panicked bool) {
	t.Helper()
	cv, cp := runClosureExpr(e, in)
	vv, vp := runVMExpr(p, in)
	if cp != vp {
		t.Fatalf("panic disagreement on %s\ninput %v\nclosure panicked=%v, vm panicked=%v",
			exprStr(e), in, cp, vp)
	}
	if cp {
		return true
	}
	if !sameValue(cv, vv) {
		t.Fatalf("value disagreement on %s\ninput %v\nclosure %v (%T), vm %v (%T)",
			exprStr(e), in, cv, cv, vv, vv)
	}
	return false
}

// TestVMDifferentialRandomExprs is the property test: on a fixed seed,
// hundreds of random well-typed expressions, each executed on several
// random inputs, must agree between the two evaluators. The seed is
// fixed so failures reproduce; the final counters prove the sweep
// exercised both the value path and the panic path.
func TestVMDifferentialRandomExprs(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	kinds := []vm.Kind{vm.KInt, vm.KFloat, vm.KStr, vm.KBool}
	values, panics, lists := 0, 0, 0
	for i := 0; i < 600; i++ {
		e := genExpr(r, kinds[r.Intn(len(kinds))], 1+r.Intn(3))
		p := bindVM(compileExprVM(e, diffInType, "S"))
		if p == nil {
			t.Fatalf("trial %d: VM rejected a generated expression: %s", i, exprStr(e))
		}
		if usesLists(p) {
			lists++
		}
		for j := 0; j < 4; j++ {
			if diffOne(t, e, p, randTup(r)) {
				panics++
			} else {
				values++
			}
		}
	}
	if values == 0 || panics == 0 || lists < 100 {
		t.Fatalf("sweep did not cover both outcomes and lists: %d values, %d panics, %d list programs", values, panics, lists)
	}
}

// TestVMVecDifferentialRandomExprs is the batch-execution property
// test: every expression program the vectorizer accepts must agree
// with the scalar Machine over whole batches. The one asymmetry the
// contract allows is panics — the vectorized plan executes both sides
// of every conditional (if-conversion) and so may fault where the
// scalar path would not — but the direction that matters for
// correctness is checked exactly: if the vectorized run completes, no
// scalar row may panic, every output value must match, and the
// per-segment entry counts must be identical. A vectorized panic must
// leave the machine with a valid faulting-row attribution, and the
// scalar replay (the scheduler's fall-back) is by definition the
// reference behaviour.
func TestVMVecDifferentialRandomExprs(t *testing.T) {
	r := rand.New(rand.NewSource(20260809))
	kinds := []vm.Kind{vm.KInt, vm.KFloat, vm.KStr, vm.KBool}
	batches, vecPanics := 0, 0
	for i := 0; i < 300; i++ {
		e := genExpr(r, kinds[r.Intn(len(kinds))], 1+r.Intn(3))
		p := bindVM(compileExprVM(e, diffInType, "S"))
		if p == nil {
			t.Fatalf("trial %d: VM rejected a generated expression: %s", i, exprStr(e))
		}
		vp, err := vm.PlanVec(p)
		if usesLists(p) {
			// Lists live in the scalar machine's arena: such programs
			// must be declined, and run fused or per-operator instead.
			if err == nil {
				t.Fatalf("trial %d: vectorizer accepted a list program: %s", i, exprStr(e))
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: vectorizer rejected the expression subset: %s\n%v", i, exprStr(e), err)
		}
		n := 2 + r.Intn(15)
		batch := make([]tuple.Tuple, n)
		ins := make([]Tup, n)
		for j := range batch {
			ins[j] = randTup(r)
			batch[j] = tuple.Tuple{Seq: uint64(j), Ref: ins[j]}
		}

		// Scalar reference, row by row.
		scalarOut := make([]Value, n)
		scalarPanic := make([]bool, n)
		var sm vm.Machine
		sm.Reset(p)
		for j := range batch {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						scalarPanic[j] = true
					}
				}()
				sm.Run(p, batch[j], vm.EmitFunc(func(o tuple.Tuple) {
					scalarOut[j] = refTup(o.Ref)["r"]
				}))
			}()
		}

		var bm vm.BatchMachine
		bm.Reset(vp)
		vecPanicked := false
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					vecPanicked = true
				}
			}()
			bm.Run(batch)
		}()
		if vecPanicked {
			vecPanics++
			if fr := bm.FaultRow(); fr < 0 || fr >= n {
				t.Fatalf("trial %d: vectorized panic with fault row %d outside the batch [0,%d)\nexpr %s",
					i, fr, n, exprStr(e))
			}
			continue
		}
		var vecOut []Value
		bm.EmitRows(vm.EmitFunc(func(o tuple.Tuple) {
			vecOut = append(vecOut, refTup(o.Ref)["r"])
		}))
		for j := range batch {
			if scalarPanic[j] {
				t.Fatalf("trial %d: scalar row %d panicked but the vectorized run completed\nexpr %s\ninput %v",
					i, j, exprStr(e), ins[j])
			}
		}
		if len(vecOut) != n {
			t.Fatalf("trial %d: vectorized emitted %d of %d rows\nexpr %s", i, len(vecOut), n, exprStr(e))
		}
		for j := range vecOut {
			if !sameValue(scalarOut[j], vecOut[j]) {
				t.Fatalf("trial %d: row %d disagrees on %s\ninput %v\nscalar %v (%T), vectorized %v (%T)",
					i, j, exprStr(e), ins[j], scalarOut[j], scalarOut[j], vecOut[j], vecOut[j])
			}
		}
		if got, want := bm.SegCounts(), sm.SegCounts(); !slicesEqualU64(got, want) {
			t.Fatalf("trial %d: seg counts diverge: vectorized %v scalar %v\nexpr %s", i, got, want, exprStr(e))
		}
		batches++
	}
	if batches == 0 {
		t.Fatalf("sweep completed no clean batches (%d vectorized panics)", vecPanics)
	}
}

// usesLists reports whether p contains a list opcode.
func usesLists(p *vm.Program) bool {
	for _, in := range p.Code {
		switch in.Op {
		case vm.OpIndexL, vm.OpSliceL, vm.OpMakeL, vm.OpCallL:
			return true
		}
	}
	return false
}

func slicesEqualU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// vecDiffProgram is a fusable Custom → Filter → Custom pipeline: the
// filter becomes a selection-vector prune in the vectorized plan, so
// the fused differential covers dropped rows and multi-segment entry
// counts, not just straight-line expressions.
const vecDiffProgram = `
composite Main {
  graph
    stream<int64 x, int64 y> N = Beacon() { param iterations: 1; }
    stream<int64 a, int64 b> S1 = Custom(N) {
      logic onTuple N: { submit({ a = x * 3 + y, b = x - y }, S1); }
    }
    stream<int64 a, int64 b> S2 = Filter(S1) { param filter: a % 3 == 0; }
    stream<int64 r> S3 = Custom(S2) {
      logic onTuple S2: { submit({ r = a * b + 7 }, S3); }
    }
    () as Out = FileSink(S3) { param file: "/dev/null"; }
}
`

// fusedDiffProgs compiles src and fuses the named pipeline stages in
// order.
func fusedDiffProgs(t *testing.T, src string, stages ...string) *vm.Program {
	t.Helper()
	compiled, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*vm.Program, len(stages))
	for _, n := range compiled.Graph.Nodes {
		pr, ok := n.Op.(vm.Programmed)
		if !ok || pr.VMProgram() == nil {
			continue
		}
		for i, st := range stages {
			if strings.HasSuffix(n.Op.Name(), "/"+st) {
				progs[i] = pr.VMProgram()
			}
		}
	}
	for i, p := range progs {
		if p == nil {
			t.Fatalf("pipeline stage %s did not compile to bytecode", stages[i])
		}
	}
	fused, err := vm.Fuse(progs)
	if err != nil {
		t.Fatal(err)
	}
	return fused
}

// TestVMVecDifferentialFusedFilterChain runs random batches through a
// fused three-segment pipeline with a mid-chain filter, scalar versus
// vectorized, and requires identical outputs (the filter's survivors,
// in order) and identical per-segment entry counts (the filter's drops
// must show in segment 3's count on both paths).
func TestVMVecDifferentialFusedFilterChain(t *testing.T) {
	fused := fusedDiffProgs(t, vecDiffProgram, "S1", "S2", "S3")
	vp, err := vm.PlanVec(fused)
	if err != nil {
		t.Fatalf("fused pipeline did not vectorize: %v", err)
	}
	r := rand.New(rand.NewSource(20260810))
	for _, n := range []int{1, 7, 64, 200} {
		batch := make([]tuple.Tuple, n)
		for j := range batch {
			batch[j] = tuple.Tuple{Seq: uint64(j), Ref: Tup{
				"x": r.Int63n(41) - 20,
				"y": r.Int63n(41) - 20,
			}}
		}
		var scalarOut []int64
		var sm vm.Machine
		sm.Reset(fused)
		for j := range batch {
			sm.Run(fused, batch[j], vm.EmitFunc(func(o tuple.Tuple) {
				scalarOut = append(scalarOut, refTup(o.Ref)["r"].(int64))
			}))
		}
		var vecOut []int64
		var bm vm.BatchMachine
		bm.Reset(vp)
		bm.Run(batch)
		bm.EmitRows(vm.EmitFunc(func(o tuple.Tuple) {
			vecOut = append(vecOut, refTup(o.Ref)["r"].(int64))
		}))
		if !reflect.DeepEqual(vecOut, scalarOut) {
			t.Fatalf("n=%d: outputs diverge\nvectorized %v\nscalar     %v", n, vecOut, scalarOut)
		}
		if got, want := bm.SegCounts(), sm.SegCounts(); !slicesEqualU64(got, want) {
			t.Fatalf("n=%d: seg counts diverge: vectorized %v scalar %v", n, got, want)
		}
	}
}

// vecDiffFilterTailProgram ends the pipeline on the Filter — the
// compiler-produced map|filter shape whose fused program has a Fresh
// interior segment and a forwarding final segment. The vectorized emit
// must materialize the Custom stage's rebuilt template (payload, Seq 0)
// rather than forward the original Beacon row.
const vecDiffFilterTailProgram = `
composite Main {
  graph
    stream<int64 x, int64 y> N = Beacon() { param iterations: 1; }
    stream<int64 a, int64 b> S1 = Custom(N) {
      logic onTuple N: { submit({ a = x * 2 + 1, b = y - x }, S1); }
    }
    stream<int64 a, int64 b> S2 = Filter(S1) { param filter: a % 3 == 0; }
    () as Out = FileSink(S2) { param file: "/dev/null"; }
}
`

// TestVMVecDifferentialFreshInteriorFilterTail runs random batches
// through the fused map|filter pipeline, scalar versus vectorized, and
// requires identical payloads AND identical tuple headers (Seq/Stamp)
// on every emitted row — the regression shape where the vectorized
// path used to forward the input tuple instead of the interior Fresh
// segment's template.
func TestVMVecDifferentialFreshInteriorFilterTail(t *testing.T) {
	fused := fusedDiffProgs(t, vecDiffFilterTailProgram, "S1", "S2")
	vp, err := vm.PlanVec(fused)
	if err != nil {
		t.Fatalf("map|filter pipeline did not vectorize: %v", err)
	}
	r := rand.New(rand.NewSource(20260808))
	for _, n := range []int{1, 7, 64, 200} {
		batch := make([]tuple.Tuple, n)
		for j := range batch {
			batch[j] = tuple.Tuple{Seq: uint64(j + 1), Stamp: 7, Ref: Tup{
				"x": r.Int63n(41) - 20,
				"y": r.Int63n(41) - 20,
			}}
		}
		var scalarOut []tuple.Tuple
		var sm vm.Machine
		sm.Reset(fused)
		for j := range batch {
			sm.Run(fused, batch[j], vm.EmitFunc(func(o tuple.Tuple) {
				scalarOut = append(scalarOut, o)
			}))
		}
		var vecOut []tuple.Tuple
		var bm vm.BatchMachine
		bm.Reset(vp)
		bm.Run(batch)
		bm.EmitRows(vm.EmitFunc(func(o tuple.Tuple) {
			vecOut = append(vecOut, o)
		}))
		if len(vecOut) != len(scalarOut) {
			t.Fatalf("n=%d: vectorized emitted %d rows, scalar %d", n, len(vecOut), len(scalarOut))
		}
		for j := range vecOut {
			v, s := vecOut[j], scalarOut[j]
			if v.Seq != s.Seq || v.Stamp != s.Stamp {
				t.Fatalf("n=%d row %d: header diverges: vec {Seq %d Stamp %d} scalar {Seq %d Stamp %d}",
					n, j, v.Seq, v.Stamp, s.Seq, s.Stamp)
			}
			vt, st := refTup(v.Ref), refTup(s.Ref)
			if !reflect.DeepEqual(vt, st) {
				t.Fatalf("n=%d row %d: payload diverges: vec %v scalar %v", n, j, vt, st)
			}
		}
		if got, want := bm.SegCounts(), sm.SegCounts(); !slicesEqualU64(got, want) {
			t.Fatalf("n=%d: seg counts diverge: vectorized %v scalar %v", n, got, want)
		}
	}
}

// TestVMDifferentialEdgeCases pins the known-sharp edges explicitly, so
// a generator drift can never silently drop them: integer division and
// modulo by zero, float division by zero (Inf and NaN, no panic),
// substring out of range and clamped, toInt parse failure, the
// unfoldable spin call, and the list edges — index at, past and before
// the ends, slices with clamped, crossed, negative and missing bounds,
// and everything over an empty list.
func TestVMDifferentialEdgeCases(t *testing.T) {
	in := Tup{"a": int64(0), "b": int64(7), "f": 0.0, "g": 0.0, "s": "abc", "t": "12x", "p": true, "q": false}
	toks := &CallExpr{Name: "tokenize", Args: []Expr{&StringLit{V: "w x  y z"}, &StringLit{V: " "}, &Ident{Name: "q"}}}
	none := &CallExpr{Name: "tokenize", Args: []Expr{&StringLit{V: ""}, &StringLit{V: " "}, &Ident{Name: "q"}}}
	flat := func(l Expr) Expr { return &CallExpr{Name: "flatten", Args: []Expr{l}} }
	cases := []Expr{
		&IndexExpr{X: toks, I: &IntLit{V: 3}},
		&IndexExpr{X: toks, I: &IntLit{V: 4}},
		&IndexExpr{X: toks, I: &IntLit{V: -1}},
		&IndexExpr{X: none, I: &Ident{Name: "a"}},
		&IndexExpr{X: &SliceExpr{X: toks, Lo: &IntLit{V: 2}}, I: &IntLit{V: 2}},
		flat(&SliceExpr{X: toks, Lo: &IntLit{V: 1}, Hi: &IntLit{V: 3}}),
		flat(&SliceExpr{X: toks, Lo: &IntLit{V: -5}, Hi: &IntLit{V: 99}}),
		flat(&SliceExpr{X: toks, Lo: &IntLit{V: 3}, Hi: &IntLit{V: 1}}),
		flat(&SliceExpr{X: toks, Hi: &Ident{Name: "b"}}),
		flat(&SliceExpr{X: &SliceExpr{X: toks, Lo: &IntLit{V: 1}}, Lo: &IntLit{V: 1}}),
		flat(none),
		&CallExpr{Name: "size", Args: []Expr{&SliceExpr{X: toks, Lo: &IntLit{V: 9}}}},
		&CallExpr{Name: "size", Args: []Expr{&CallExpr{Name: "tokenize", Args: []Expr{&StringLit{V: "w x  y z"}, &StringLit{V: " "}, &Ident{Name: "p"}}}}},
		&CallExpr{Name: "toString", Args: []Expr{&CondExpr{C: &Ident{Name: "p"}, T: toks, F: none}}},
		&IndexExpr{X: &CallExpr{Name: "parseMsg", Args: []Expr{&StringLit{V: "uid=1 euid=2 tty=t rhost=r"}}}, I: &IntLit{V: 4}},
		&IndexExpr{X: &ListLit{Elems: []Expr{&Ident{Name: "s"}, &Ident{Name: "t"}}}, I: &Ident{Name: "a"}},
		&BinaryExpr{Op: SLASH, X: &IntLit{V: 1}, Y: &Ident{Name: "a"}},
		&BinaryExpr{Op: PERCENT, X: &Ident{Name: "b"}, Y: &Ident{Name: "a"}},
		&BinaryExpr{Op: SLASH, X: &FloatLit{V: 1}, Y: &Ident{Name: "g"}},
		&BinaryExpr{Op: SLASH, X: &Ident{Name: "f"}, Y: &Ident{Name: "g"}},
		&CallExpr{Name: "substring", Args: []Expr{&Ident{Name: "s"}, &IntLit{V: 1}, &IntLit{V: 100}}},
		&CallExpr{Name: "substring", Args: []Expr{&Ident{Name: "s"}, &IntLit{V: 5}, &IntLit{V: 1}}},
		&CallExpr{Name: "substring", Args: []Expr{&Ident{Name: "s"}, &IntLit{V: -1}, &IntLit{V: 1}}},
		&CallExpr{Name: "toInt", Args: []Expr{&Ident{Name: "t"}}},
		&CallExpr{Name: "toInt", Args: []Expr{&StringLit{V: "42"}}},
		&CallExpr{Name: "spin", Args: []Expr{&IntLit{V: 3}}},
		&BinaryExpr{Op: ANDAND, X: &Ident{Name: "q"}, Y: &BinaryExpr{Op: EQ, X: &BinaryExpr{Op: SLASH, X: &IntLit{V: 1}, Y: &Ident{Name: "a"}}, Y: &IntLit{V: 1}}},
	}
	for _, e := range cases {
		p := bindVM(compileExprVM(e, diffInType, "S"))
		if p == nil {
			t.Fatalf("VM rejected edge case: %s", exprStr(e))
		}
		diffOne(t, e, p, in)
	}
}

// schedDiffProgram is the fused differential's pipeline with a Beacon
// long enough to outrun two scheduler threads and a result that grows
// with the row, so a reordered or lost line shows in the sink file.
const schedDiffProgram = `
composite Main {
  graph
    stream<int64 x, int64 y> N = Beacon() { param iterations: 60000; }
    stream<int64 a, int64 b> S1 = Custom(N) {
      logic onTuple N: { submit({ a = x * 2 + 1, b = y + x }, S1); }
    }
    stream<int64 a, int64 b> S2 = Filter(S1) { param filter: a % 3 == 0; }
    stream<int64 r> S3 = Custom(S2) {
      logic onTuple S2: { submit({ r = a * b + 7 }, S3); }
    }
    () as Out = FileSink(S3) { param file: "out.txt"; }
}
`

// TestVMDifferentialUnderScheduler closes the differential at the level
// the machine-level tests above cannot reach: the same program under the
// dynamic scheduler, once on the closure evaluator (no programs, so no
// fused run exists) and once on bytecode, where the Beacon keeps S1's
// queue occupied and the fused, vectorized program runs over the batches
// the threads drain. The sink files must be identical line for line.
func TestVMDifferentialUnderScheduler(t *testing.T) {
	run := func(opts Options) ([]string, pe.SchedStats) {
		sink := &memFile{}
		opts.WriterFor = func(string) (io.WriteCloser, error) { return sink, nil }
		c, err := Compile(schedDiffProgram, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pe.New(c.Graph, pe.Config{Model: pe.Dynamic, Threads: 2, MaxThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if err := p.WaitTimeout(60 * time.Second); err != nil {
			t.Fatalf("program did not drain: %v", err)
		}
		return sink.Lines(), p.SchedStats()
	}
	closure, cst := run(Options{NoVM: true})
	if cst.VM.FusedRuns != 0 {
		t.Fatalf("closure run fused: %+v", cst.VM)
	}
	if len(closure) != 20000 || closure[0] != "13" { // rows 1, 4, 7, …: (2i+1)·2i + 7
		t.Fatalf("closure reference: %d lines, first %q", len(closure), closure[:min(len(closure), 1)])
	}
	fused, fst := run(Options{})
	if fst.VM.FusedTuples < 60000*9/10 || fst.VM.VecRows == 0 {
		t.Errorf("bytecode run barely fused or never vectorized, the differential compares little: %+v", fst.VM)
	}
	if !reflect.DeepEqual(fused, closure) {
		for i := range min(len(fused), len(closure)) {
			if fused[i] != closure[i] {
				t.Fatalf("line %d: bytecode %q, closure %q", i, fused[i], closure[i])
			}
		}
		t.Fatalf("bytecode wrote %d lines, closure %d", len(fused), len(closure))
	}
}
