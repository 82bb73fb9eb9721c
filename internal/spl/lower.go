package spl

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
	"streams/internal/vm"
)

// Options controls compilation.
type Options struct {
	// Main names the main composite; empty selects "Main", or the only
	// composite when there is exactly one.
	Main string
	// ReaderFor opens FileSource inputs; nil uses os.Open.
	ReaderFor func(file string) (io.ReadCloser, error)
	// WriterFor opens FileSink outputs; nil uses os.Create. Returned
	// writers implementing io.Closer are closed at final punctuation.
	WriterFor func(file string) (io.WriteCloser, error)
	// NoVM disables bytecode compilation; every operator keeps its
	// closure evaluator. The scheduler's fused dispatch needs programs,
	// so this also forces chain batches through the per-operator path.
	NoVM bool
}

// Compiled is the result of compiling an SPL program: an executable
// stream graph plus the submission-time directives the source carried.
type Compiled struct {
	// Graph is the fused stream graph ("submission-time fusion" places
	// the whole program in one PE).
	Graph *graph.Graph
	// Threading is the @threading model ("", "manual", "dedicated" or
	// "dynamic").
	Threading string
	// Threads is the @threading threads=N argument (0 if absent).
	Threads int
	// Sinks maps each FileSink's alias to its operator, for counting and
	// test inspection.
	Sinks map[string]*FileSinkOp
}

// Compile parses, checks and lowers an SPL source file into a Compiled
// program.
func Compile(src string, opts Options) (*Compiled, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	lw := &lowerer{
		comps: map[string]*Composite{},
		b:     graph.NewBuilder(),
		opts:  opts,
		out:   &Compiled{Sinks: map[string]*FileSinkOp{}},
	}
	for _, c := range prog.Composites {
		if _, dup := lw.comps[c.Name]; dup {
			return nil, errf(c.Pos, "duplicate composite %q", c.Name)
		}
		lw.comps[c.Name] = c
	}
	main, err := lw.pickMain(prog)
	if err != nil {
		return nil, err
	}
	for _, ann := range main.Annotations {
		if ann.Name != "threading" {
			continue
		}
		switch m := ann.Args["model"]; m {
		case "manual", "dedicated", "dynamic":
			lw.out.Threading = m
		case "":
			return nil, errf(ann.Pos, "@threading requires a model argument")
		default:
			return nil, errf(ann.Pos, "unknown threading model %q", m)
		}
		if ts := ann.Args["threads"]; ts != "" {
			n, err := strconv.Atoi(ts)
			if err != nil || n < 1 {
				return nil, errf(ann.Pos, "bad @threading threads value %q", ts)
			}
			lw.out.Threads = n
		}
	}
	if len(main.Inputs) > 0 || len(main.Outputs) > 0 {
		return nil, errf(main.Pos, "main composite %q must not have input or output parameters", main.Name)
	}
	if _, err := lw.expand(main, main.Name, nil); err != nil {
		return nil, err
	}
	g, err := lw.b.Build()
	if err != nil {
		return nil, fmt.Errorf("spl: lowered graph invalid: %v", err)
	}
	lw.out.Graph = g
	return lw.out, nil
}

// streamRef is a stream during expansion: its tuple type and the
// (node, outPort) pairs producing it.
type streamRef struct {
	typ       TupleType
	producers []portRef
}

type portRef struct{ node, port int }

type lowerer struct {
	comps map[string]*Composite
	b     *graph.Builder
	opts  Options
	out   *Compiled
	depth int
	// paramVals caches constant-folded parameter expressions so each
	// source expression is evaluated exactly once per compilation, even
	// when an operator probes the same parameter at several types
	// (Throttle retries rate as int64 after float64 fails).
	paramVals map[*ParamAssign]Value
}

// paramEvalHook, when non-nil, observes each parameter-expression
// evaluation (by parameter name). Tests use it to pin down the
// evaluate-exactly-once guarantee of the fold cache.
var paramEvalHook func(name string)

func (lw *lowerer) pickMain(prog *Program) (*Composite, error) {
	name := lw.opts.Main
	if name == "" {
		if len(prog.Composites) == 1 {
			return prog.Composites[0], nil
		}
		name = "Main"
	}
	c, ok := lw.comps[name]
	if !ok {
		return nil, fmt.Errorf("spl: main composite %q not found", name)
	}
	return c, nil
}

// expand instantiates composite c with the given input streams (keyed by
// the composite's input parameter names) and returns its output streams
// (keyed by output parameter names). prefix scopes diagnostic names.
func (lw *lowerer) expand(c *Composite, prefix string, inputs map[string]*streamRef) (map[string]*streamRef, error) {
	if lw.depth++; lw.depth > 64 {
		return nil, errf(c.Pos, "composite expansion too deep (recursive composite %q?)", c.Name)
	}
	defer func() { lw.depth-- }()

	named := map[string]TupleType{}
	for _, td := range c.Types {
		if _, dup := named[td.Name]; dup {
			return nil, errf(td.Pos, "duplicate type %q", td.Name)
		}
		fields, err := resolveFields(td.Fields, named)
		if err != nil {
			return nil, err
		}
		named[td.Name] = TupleType{Fields: fields}
	}
	streams := map[string]*streamRef{}
	for name, ref := range inputs {
		streams[name] = ref
	}

	for _, inv := range c.Invocations {
		if streams[inv.OutStream] != nil {
			return nil, errf(inv.Pos, "stream %q already declared", inv.OutStream)
		}
		// Resolve the input port groups to stream refs.
		inPorts := make([]*streamRef, len(inv.Inputs))
		for p, group := range inv.Inputs {
			merged := &streamRef{}
			for _, name := range group {
				ref, ok := streams[name]
				if !ok {
					return nil, errf(inv.Pos, "unknown input stream %q (streams must be declared before use)", name)
				}
				if len(merged.producers) == 0 {
					merged.typ = ref.typ
				} else if !merged.typ.equal(ref.typ) {
					return nil, errf(inv.Pos, "streams fanning into port %d have different types %s and %s", p, merged.typ, ref.typ)
				}
				merged.producers = append(merged.producers, ref.producers...)
			}
			inPorts[p] = merged
		}

		var outRef *streamRef
		var err error
		if child, isComposite := lw.comps[inv.OpName]; isComposite {
			outRef, err = lw.invokeComposite(inv, child, prefix, inPorts, named)
		} else {
			outRef, err = lw.invokeOperator(inv, prefix, inPorts, named)
		}
		if err != nil {
			return nil, err
		}
		if inv.OutStream != "" {
			if outRef == nil {
				return nil, errf(inv.Pos, "%s produces no stream but one was declared", inv.OpName)
			}
			streams[inv.OutStream] = outRef
		}
	}

	outs := map[string]*streamRef{}
	for _, name := range c.Outputs {
		ref, ok := streams[name]
		if !ok {
			return nil, errf(c.Pos, "composite %q never declares its output stream %q", c.Name, name)
		}
		outs[name] = ref
	}
	return outs, nil
}

// invokeComposite expands a composite invocation.
func (lw *lowerer) invokeComposite(inv *Invocation, child *Composite, prefix string, inPorts []*streamRef, named map[string]TupleType) (*streamRef, error) {
	if len(inv.Annotations) > 0 {
		for _, ann := range inv.Annotations {
			if ann.Name == "parallel" {
				return nil, errf(ann.Pos, "@parallel on composite invocations is not supported")
			}
		}
	}
	if len(inPorts) != len(child.Inputs) {
		return nil, errf(inv.Pos, "composite %q takes %d input streams, got %d", child.Name, len(child.Inputs), len(inPorts))
	}
	childIns := map[string]*streamRef{}
	for i, name := range child.Inputs {
		childIns[name] = inPorts[i]
	}
	outs, err := lw.expand(child, prefix+"/"+inv.Name(), childIns)
	if err != nil {
		return nil, err
	}
	switch {
	case inv.OutStream == "" && len(child.Outputs) == 0:
		return nil, nil
	case inv.OutStream != "" && len(child.Outputs) == 1:
		ref := outs[child.Outputs[0]]
		// The declared stream type may reference a type private to the
		// child (as the paper's Main does with Failure); accept it when
		// it does not resolve here, otherwise require a match.
		if inv.OutType != nil {
			if want, err := resolveType(inv.OutType, named); err == nil {
				if !want.equal(ref.typ) {
					return nil, errf(inv.Pos, "declared type %s does not match composite output type %s", want, ref.typ)
				}
			}
		}
		return ref, nil
	default:
		return nil, errf(inv.Pos, "composite %q has %d outputs; invocation declares %d", child.Name, len(child.Outputs), boolToInt(inv.OutStream != ""))
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// paramMap indexes an invocation's parameters by name.
func paramMap(inv *Invocation) map[string]*ParamAssign {
	m := map[string]*ParamAssign{}
	for _, p := range inv.Params {
		m[p.Name] = p
	}
	return m
}

// maxParallelWidth bounds an @parallel width. Lowering builds one node
// per replica, so without a bound a one-digit edit to a width would make
// Compile allocate without limit instead of returning an error.
const maxParallelWidth = 1 << 12

// parallelWidth extracts the @parallel width (1 when absent).
func parallelWidth(inv *Invocation) (int, error) {
	for _, ann := range inv.Annotations {
		if ann.Name != "parallel" {
			continue
		}
		w, err := strconv.Atoi(ann.Args["width"])
		if err != nil || w < 1 {
			return 0, errf(ann.Pos, "@parallel requires a positive integer width, got %q", ann.Args["width"])
		}
		if w > maxParallelWidth {
			return 0, errf(ann.Pos, "@parallel width %d exceeds the maximum %d", w, maxParallelWidth)
		}
		return w, nil
	}
	return 1, nil
}

// invokeOperator lowers one builtin operator invocation, replicating it
// under @parallel.
func (lw *lowerer) invokeOperator(inv *Invocation, prefix string, inPorts []*streamRef, named map[string]TupleType) (*streamRef, error) {
	width, err := parallelWidth(inv)
	if err != nil {
		return nil, err
	}
	params := paramMap(inv)
	name := prefix + "/" + inv.Name()

	// Factory builds one replica; outType nil for sinks.
	var outType *TupleType
	if inv.OutType != nil {
		t, err := resolveType(inv.OutType, named)
		if err != nil {
			return nil, err
		}
		tt, ok := t.(TupleType)
		if !ok {
			return nil, errf(inv.OutType.Pos, "stream type must be a tuple type, got %s", t)
		}
		outType = &tt
	}

	factory, numIn, numOut, err := lw.operatorFactory(inv, name, params, inPorts, outType, named)
	if err != nil {
		return nil, err
	}

	if width == 1 {
		node := lw.b.AddNode(factory(0), numIn, numOut)
		for p, ref := range inPorts {
			for _, pr := range ref.producers {
				lw.b.Connect(pr.node, pr.port, node, p)
			}
		}
		if numOut == 0 {
			return nil, nil
		}
		return &streamRef{typ: *outType, producers: []portRef{{node, 0}}}, nil
	}

	// @parallel: split the (single) input port round-robin across width
	// replicas; the output stream is produced by every replica (ordered
	// per replica stream, exactly SPL's parallel-region semantics).
	if numIn != 1 {
		return nil, errf(inv.Pos, "@parallel requires exactly one input port, got %d", numIn)
	}
	split := lw.b.AddNode(&ops.RoundRobinSplit{OpName: name + "/split", Width: width}, 1, width)
	for _, pr := range inPorts[0].producers {
		lw.b.Connect(pr.node, pr.port, split, 0)
	}
	ref := &streamRef{}
	if outType != nil {
		ref.typ = *outType
	}
	for w := 0; w < width; w++ {
		node := lw.b.AddNode(factory(w), 1, numOut)
		lw.b.Connect(split, w, node, 0)
		if numOut > 0 {
			ref.producers = append(ref.producers, portRef{node, 0})
		}
	}
	if numOut == 0 {
		return nil, nil
	}
	return ref, nil
}

// operatorFactory type-checks one builtin invocation and returns a
// replica factory plus the operator's port counts.
func (lw *lowerer) operatorFactory(inv *Invocation, name string, params map[string]*ParamAssign, inPorts []*streamRef, outType *TupleType, named map[string]TupleType) (func(replica int) graph.Operator, int, int, error) {
	requireParams := func(known ...string) error {
		ok := map[string]bool{}
		for _, k := range known {
			ok[k] = true
		}
		for pname, p := range params {
			if !ok[pname] {
				return errf(p.Pos, "%s has no parameter %q", inv.OpName, pname)
			}
		}
		return nil
	}
	constParam := func(pname string, want Type) (Value, error) {
		p, okp := params[pname]
		if !okp {
			return nil, nil
		}
		v, cached := lw.paramVals[p]
		if !cached {
			if paramEvalHook != nil {
				paramEvalHook(pname)
			}
			var err error
			v, err = constEval(p.Expr)
			if err != nil {
				return nil, errf(p.Pos, "parameter %q: %v", pname, err)
			}
			// Cache before the type check: a retry at a different
			// expected type (Throttle's float64-then-int64 rate) must
			// not re-evaluate the expression.
			if lw.paramVals == nil {
				lw.paramVals = map[*ParamAssign]Value{}
			}
			lw.paramVals[p] = v
		}
		got := typeOfValue(v)
		if !assignable(want, got) {
			return nil, errf(p.Pos, "parameter %q has type %s, want %s", pname, got, want)
		}
		return v, nil
	}

	switch inv.OpName {
	case "Beacon":
		if len(inPorts) != 0 {
			return nil, 0, 0, errf(inv.Pos, "Beacon takes no input streams")
		}
		if outType == nil {
			return nil, 0, 0, errf(inv.Pos, "Beacon must declare an output stream")
		}
		if err := requireParams("iterations"); err != nil {
			return nil, 0, 0, err
		}
		var iters int64
		if v, err := constParam("iterations", Int64); err != nil {
			return nil, 0, 0, err
		} else if v != nil {
			iters = v.(int64)
		}
		return func(int) graph.Operator {
			return &beaconOp{name: name, typ: *outType, iterations: iters}
		}, 0, 1, nil

	case "FileSource":
		if len(inPorts) != 0 {
			return nil, 0, 0, errf(inv.Pos, "FileSource takes no input streams")
		}
		if outType == nil || len(outType.Fields) != 1 || !outType.Fields[0].Type.equal(RString) {
			return nil, 0, 0, errf(inv.Pos, "FileSource output type must have exactly one rstring attribute")
		}
		if err := requireParams("file", "format"); err != nil {
			return nil, 0, 0, err
		}
		if p, ok := params["format"]; ok {
			id, isIdent := p.Expr.(*Ident)
			if !isIdent || id.Name != "line" {
				return nil, 0, 0, errf(p.Pos, "FileSource supports only format: line")
			}
		}
		fv, err := constParam("file", RString)
		if err != nil {
			return nil, 0, 0, err
		}
		if fv == nil {
			return nil, 0, 0, errf(inv.Pos, "FileSource requires a file parameter")
		}
		open := lw.opts.ReaderFor
		if open == nil {
			open = func(f string) (io.ReadCloser, error) { return os.Open(f) }
		}
		return func(int) graph.Operator {
			return &fileSourceOp{name: name, file: fv.(string), typ: *outType, open: open}
		}, 0, 1, nil

	case "Custom":
		if err := requireParams(); err != nil {
			return nil, 0, 0, err
		}
		if len(inPorts) == 0 {
			return nil, 0, 0, errf(inv.Pos, "Custom requires at least one input stream")
		}
		numOut := 0
		outs := map[string]TupleType{}
		if outType != nil {
			numOut = 1
			outs[inv.OutStream] = *outType
		}
		// The state clause declares variables that persist across tuples
		// (and across input ports of the same operator instance). State
		// initializers cannot see tuple attributes.
		stateScope := newScope(nil)
		if inv.State != nil {
			for _, st := range inv.State.Stmts {
				if _, ok := st.(*DeclStmt); !ok {
					return nil, 0, 0, errf(st.P(), "state clauses may only contain declarations")
				}
			}
			if err := checkBlock(inv.State, stateScope, &blockCtx{named: named, outs: map[string]TupleType{}}); err != nil {
				return nil, 0, 0, err
			}
		}
		blocks := make([]*Block, len(inPorts))
		for p, group := range inv.Inputs {
			if len(group) != 1 {
				return nil, 0, 0, errf(inv.Pos, "Custom ports must be fed by exactly one stream (logic is named per stream)")
			}
			blk, ok := inv.Logic[group[0]]
			if !ok {
				continue // no logic for this port: tuples are dropped
			}
			sc := newScope(stateScope)
			for _, f := range inPorts[p].typ.Fields {
				sc.vars[f.Name] = f.Type
			}
			sc.vars[group[0]] = inPorts[p].typ
			if err := checkBlock(blk, newScope(sc), &blockCtx{named: named, outs: outs}); err != nil {
				return nil, 0, 0, err
			}
			blocks[p] = blk
		}
		for stream := range inv.Logic {
			found := false
			for _, group := range inv.Inputs {
				if group[0] == stream {
					found = true
				}
			}
			if !found {
				return nil, 0, 0, errf(inv.Pos, "onTuple %s does not name an input stream", stream)
			}
		}
		inTypes := make([]TupleType, len(inPorts))
		inNames := make([]string, len(inPorts))
		for p := range inPorts {
			inTypes[p] = inPorts[p].typ
			inNames[p] = inv.Inputs[p][0]
		}
		var ot TupleType
		if outType != nil {
			ot = *outType
		}
		stateBlock := inv.State
		// Stateless single-in single-out Custom operators compile to
		// bytecode; anything else (state, multi-port, dropped output)
		// keeps the interpreter.
		var prog *vm.Program
		if !lw.opts.NoVM && stateBlock == nil && len(inPorts) == 1 && outType != nil && blocks[0] != nil {
			prog = bindVM(compileCustomVM(name, blocks[0], inTypes[0], inNames[0], ot, inv.OutStream))
		}
		return func(int) graph.Operator {
			op := &customOp{name: name, blocks: blocks, inTypes: inTypes, inNames: inNames, outType: ot, hasOut: outType != nil, prog: prog}
			if stateBlock != nil {
				// Each replica owns its state, initialized once here.
				op.state = newEnv(nil)
				execBlock(stateBlock, op.state, func(string, Tup) {})
			}
			return op
		}, len(inPorts), numOut, nil

	case "Filter":
		if len(inPorts) != 1 {
			return nil, 0, 0, errf(inv.Pos, "Filter takes exactly one input stream")
		}
		if outType == nil {
			return nil, 0, 0, errf(inv.Pos, "Filter must declare an output stream")
		}
		if !outType.equal(inPorts[0].typ) {
			return nil, 0, 0, errf(inv.Pos, "Filter output type %s must equal its input type %s", *outType, inPorts[0].typ)
		}
		if err := requireParams("filter"); err != nil {
			return nil, 0, 0, err
		}
		p, ok := params["filter"]
		if !ok {
			return nil, 0, 0, errf(inv.Pos, "Filter requires a filter parameter")
		}
		sc := newScope(nil)
		for _, f := range inPorts[0].typ.Fields {
			sc.vars[f.Name] = f.Type
		}
		t, err := checkExpr(p.Expr, sc)
		if err != nil {
			return nil, 0, 0, err
		}
		if !t.equal(Boolean) {
			return nil, 0, 0, errf(p.Pos, "filter expression has type %s, want boolean", t)
		}
		var prog *vm.Program
		if !lw.opts.NoVM {
			prog = bindVM(compileFilterVM(name, p.Expr, inPorts[0].typ))
		}
		return func(int) graph.Operator {
			return &filterOp{name: name, pred: p.Expr, prog: prog}
		}, 1, 1, nil

	case "Work":
		if len(inPorts) != 1 {
			return nil, 0, 0, errf(inv.Pos, "Work takes exactly one input stream")
		}
		if outType == nil || !outType.equal(inPorts[0].typ) {
			return nil, 0, 0, errf(inv.Pos, "Work forwards its input; output type must equal input type")
		}
		if err := requireParams("cost"); err != nil {
			return nil, 0, 0, err
		}
		var cost int64
		if v, err := constParam("cost", Int64); err != nil {
			return nil, 0, 0, err
		} else if v != nil {
			cost = v.(int64)
		}
		var wprog *vm.Program
		if !lw.opts.NoVM {
			wprog = bindVM(compileWorkVM(name, int(cost), inPorts[0].typ))
		}
		return func(int) graph.Operator {
			return &workOp{name: name, cost: int(cost), prog: wprog}
		}, 1, 1, nil

	case "Aggregate":
		if len(inPorts) != 1 {
			return nil, 0, 0, errf(inv.Pos, "Aggregate takes exactly one input stream")
		}
		if outType == nil || len(outType.Fields) != 1 {
			return nil, 0, 0, errf(inv.Pos, "Aggregate output type must have exactly one attribute")
		}
		if err := requireParams("count", "function", "attr"); err != nil {
			return nil, 0, 0, err
		}
		cv, err := constParam("count", Int64)
		if err != nil {
			return nil, 0, 0, err
		}
		if cv == nil || cv.(int64) < 1 {
			return nil, 0, 0, errf(inv.Pos, "Aggregate requires a positive count parameter")
		}
		fnName := "sum"
		if fp, ok := params["function"]; ok {
			id, isIdent := fp.Expr.(*Ident)
			if !isIdent {
				return nil, 0, 0, errf(fp.Pos, "Aggregate function must be one of sum, min, max, avg, count")
			}
			fnName = id.Name
		}
		switch fnName {
		case "sum", "min", "max", "avg", "count":
		default:
			return nil, 0, 0, errf(inv.Pos, "unknown Aggregate function %q (sum, min, max, avg, count)", fnName)
		}
		attr := ""
		var attrType Type
		if ap, ok := params["attr"]; ok {
			id, isIdent := ap.Expr.(*Ident)
			if !isIdent {
				return nil, 0, 0, errf(ap.Pos, "Aggregate attr must be an attribute name")
			}
			attr = id.Name
			at, ok := inPorts[0].typ.Field(attr)
			if !ok {
				return nil, 0, 0, errf(ap.Pos, "input type %s has no attribute %q", inPorts[0].typ, attr)
			}
			if !isInt(at) && !at.equal(Float64) {
				return nil, 0, 0, errf(ap.Pos, "Aggregate attr %q has type %s, want a number", attr, at)
			}
			attrType = at
		}
		if fnName != "count" && attr == "" {
			return nil, 0, 0, errf(inv.Pos, "Aggregate function %s requires an attr parameter", fnName)
		}
		// Result type: count → int64; avg → float64; sum/min/max follow
		// the attribute type.
		var resType Type
		switch fnName {
		case "count":
			resType = Int64
		case "avg":
			resType = Float64
		default:
			if isInt(attrType) {
				resType = Int64
			} else {
				resType = Float64
			}
		}
		outField := outType.Fields[0]
		if !assignable(outField.Type, resType) {
			return nil, 0, 0, errf(inv.Pos, "Aggregate %s over %s produces %s; output attribute %q has type %s",
				fnName, attr, resType, outField.Name, outField.Type)
		}
		return func(int) graph.Operator {
			return &aggregateOp{
				name: name, window: cv.(int64), fn: fnName,
				attr: attr, outAttr: outField.Name, floatOut: resType.equal(Float64),
			}
		}, 1, 1, nil

	case "FileSink":
		if len(inPorts) != 1 {
			return nil, 0, 0, errf(inv.Pos, "FileSink takes exactly one input stream")
		}
		if outType != nil {
			return nil, 0, 0, errf(inv.Pos, "FileSink produces no stream; use '() as Name = FileSink(...)'")
		}
		if err := requireParams("file"); err != nil {
			return nil, 0, 0, err
		}
		fv, err := constParam("file", RString)
		if err != nil {
			return nil, 0, 0, err
		}
		if fv == nil {
			return nil, 0, 0, errf(inv.Pos, "FileSink requires a file parameter")
		}
		open := lw.opts.WriterFor
		if open == nil {
			open = func(f string) (io.WriteCloser, error) { return os.Create(f) }
		}
		sink := &FileSinkOp{name: name, file: fv.(string), typ: inPorts[0].typ, open: open}
		lw.out.Sinks[inv.Name()] = sink
		return func(int) graph.Operator { return sink }, 1, 0, nil

	case "Throttle":
		if len(inPorts) != 1 {
			return nil, 0, 0, errf(inv.Pos, "Throttle takes exactly one input stream")
		}
		if outType == nil || !outType.equal(inPorts[0].typ) {
			return nil, 0, 0, errf(inv.Pos, "Throttle forwards its input; output type must equal input type")
		}
		if err := requireParams("rate"); err != nil {
			return nil, 0, 0, err
		}
		rv, err := constParam("rate", Float64)
		if err != nil {
			// Integer rates are convenient; retry as int64.
			rv, err = constParam("rate", Int64)
			if err != nil {
				return nil, 0, 0, err
			}
			if rv != nil {
				rv = float64(rv.(int64))
			}
		}
		if rv == nil {
			return nil, 0, 0, errf(inv.Pos, "Throttle requires a rate parameter (tuples per second)")
		}
		rate := rv.(float64)
		if rate <= 0 {
			return nil, 0, 0, errf(inv.Pos, "Throttle rate must be positive, got %g", rate)
		}
		return func(int) graph.Operator {
			return &throttleOp{name: name, interval: time.Duration(float64(time.Second) / rate)}
		}, 1, 1, nil

	case "Punctor":
		if len(inPorts) != 1 {
			return nil, 0, 0, errf(inv.Pos, "Punctor takes exactly one input stream")
		}
		if outType == nil || !outType.equal(inPorts[0].typ) {
			return nil, 0, 0, errf(inv.Pos, "Punctor forwards its input; output type must equal input type")
		}
		if err := requireParams("count"); err != nil {
			return nil, 0, 0, err
		}
		cv, err := constParam("count", Int64)
		if err != nil {
			return nil, 0, 0, err
		}
		if cv == nil || cv.(int64) < 1 {
			return nil, 0, 0, errf(inv.Pos, "Punctor requires a positive count parameter")
		}
		return func(int) graph.Operator {
			return &punctorOp{name: name, every: cv.(int64)}
		}, 1, 1, nil

	case "DeDuplicate":
		if len(inPorts) != 1 {
			return nil, 0, 0, errf(inv.Pos, "DeDuplicate takes exactly one input stream")
		}
		if outType == nil || !outType.equal(inPorts[0].typ) {
			return nil, 0, 0, errf(inv.Pos, "DeDuplicate forwards its input; output type must equal input type")
		}
		if err := requireParams("key"); err != nil {
			return nil, 0, 0, err
		}
		kp, ok := params["key"]
		if !ok {
			return nil, 0, 0, errf(inv.Pos, "DeDuplicate requires a key parameter naming an attribute")
		}
		kid, isIdent := kp.Expr.(*Ident)
		if !isIdent {
			return nil, 0, 0, errf(kp.Pos, "DeDuplicate key must be an attribute name")
		}
		if _, ok := inPorts[0].typ.Field(kid.Name); !ok {
			return nil, 0, 0, errf(kp.Pos, "input type %s has no attribute %q", inPorts[0].typ, kid.Name)
		}
		return func(int) graph.Operator {
			return &dedupOp{name: name, key: kid.Name}
		}, 1, 1, nil

	default:
		return nil, 0, 0, errf(inv.Pos, "unknown operator %q (builtins: Beacon, FileSource, Custom, Filter, Work, Aggregate, Throttle, Punctor, DeDuplicate, FileSink)", inv.OpName)
	}
}

// typeOfValue maps a runtime constant back to its type (for parameter
// checking).
func typeOfValue(v Value) Type {
	switch x := v.(type) {
	case bool:
		return Boolean
	case int64:
		return Int64
	case float64:
		return Float64
	case string:
		return RString
	case []Value:
		if len(x) == 0 {
			return ListType{Elem: RString}
		}
		return ListType{Elem: typeOfValue(x[0])}
	default:
		return RString
	}
}

// ----- SPL runtime operators -----

// beaconOp generates `iterations` tuples (0 = unbounded) whose integer
// attributes carry the sequence number.
type beaconOp struct {
	name       string
	typ        TupleType
	iterations int64
}

// Name implements graph.Operator.
func (b *beaconOp) Name() string { return b.name }

// Process implements graph.Operator; sources receive no input.
func (b *beaconOp) Process(graph.Submitter, tuple.Tuple, int) {}

// Run implements graph.Source.
func (b *beaconOp) Run(out graph.Submitter, stop <-chan struct{}) {
	rows := newSourceRows(b.typ)
	for i := int64(0); b.iterations == 0 || i < b.iterations; {
		select {
		case <-stop:
			return
		default:
		}
		for ; !rows.full() && (b.iterations == 0 || i < b.iterations); i++ {
			if rows.vals == nil {
				rows.addRef(b.tup(i))
				continue
			}
			// Non-integer attributes keep the zero Val they start with.
			for k, f := range rows.layout.Fields {
				if f.Kind == vm.KInt {
					rows.vals[k].I = i
				}
			}
			rows.add()
		}
		rows.flush(out)
	}
}

// tup builds tuple i as a map, for a tuple type frames cannot hold.
func (b *beaconOp) tup(i int64) Tup {
	tv := Tup{}
	for _, f := range b.typ.Fields {
		if isInt(f.Type) {
			tv[f.Name] = i
		} else {
			tv[f.Name] = zeroValue(f.Type)
		}
	}
	return tv
}

// sourceRows is the emit side both SPL sources share: rows gather into
// one BatchSize-sized submit, and their payloads are *Rec rows of a
// columnar Frame (frame.go) rather than a Tup map per tuple — the form
// bytecode consumers load positionally and closure consumers
// materialize through refTup. A source whose tuple type has a
// non-scalar attribute has no frame layout (vals is nil) and adds
// ready-made payloads instead.
type sourceRows struct {
	layout vm.Layout
	vals   []vm.Val // the row being built, one Val per attribute
	store  frameStore
	buf    []tuple.Tuple
}

func newSourceRows(typ TupleType) *sourceRows {
	r := &sourceRows{buf: make([]tuple.Tuple, 0, graph.BatchSize)}
	if layout, ok := vmLayoutOf(typ); ok {
		r.layout, r.vals = layout, make([]vm.Val, len(layout.Fields))
	}
	return r
}

func (r *sourceRows) full() bool { return len(r.buf) == cap(r.buf) }

// add appends the row in vals.
func (r *sourceRows) add() { r.addRef(r.store.Append(r.vals, r.layout)) }

func (r *sourceRows) addRef(ref any) { r.buf = append(r.buf, tuple.Tuple{Ref: ref}) }

// flush submits the gathered rows on output port 0.
func (r *sourceRows) flush(out graph.Submitter) {
	graph.SubmitBatch(out, r.buf, 0)
	r.buf = r.buf[:0]
}

// fileSourceOp emits one single-attribute tuple per input line.
type fileSourceOp struct {
	name string
	file string
	typ  TupleType // the single rstring attribute
	open func(string) (io.ReadCloser, error)
}

// Name implements graph.Operator.
func (f *fileSourceOp) Name() string { return f.name }

// Process implements graph.Operator; sources receive no input.
func (f *fileSourceOp) Process(graph.Submitter, tuple.Tuple, int) {}

// Run implements graph.Source.
func (f *fileSourceOp) Run(out graph.Submitter, stop <-chan struct{}) {
	r, err := f.open(f.file)
	if err != nil {
		panic(rtErrf(Pos{}, "FileSource %s: %v", f.name, err))
	}
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	rows := newSourceRows(f.typ)
	for eof := false; !eof; {
		select {
		case <-stop:
			return
		default:
		}
		for !rows.full() {
			if eof = !sc.Scan(); eof {
				break
			}
			rows.vals[0].S = sc.Text()
			rows.add()
		}
		rows.flush(out)
	}
}

// customOp interprets onTuple logic blocks. Operators with a state
// clause keep a persistent environment; it is mutex-protected because
// under the dynamic model different threads execute the operator over
// time (and concurrently, for multi-port operators).
type customOp struct {
	name    string
	blocks  []*Block
	inTypes []TupleType
	inNames []string
	outType TupleType
	hasOut  bool

	// prog, when non-nil, is the bytecode form of the (stateless,
	// single-port) onTuple block; Process runs it instead of the
	// interpreter. mach/emit are reused across tuples — per-port
	// consumer locks serialize Process, so no further locking.
	prog *vm.Program
	mach vm.Machine
	emit submitEmitter

	stateMu sync.Mutex
	state   *renv
}

// submitEmitter adapts graph.Submitter to vm.Emitter on output port 0.
// Each operator instance keeps one and rebinds its target per Process
// call, so the hot path allocates no closure.
type submitEmitter struct{ out graph.Submitter }

// Emit implements vm.Emitter.
func (e *submitEmitter) Emit(t tuple.Tuple) { e.out.Submit(t, 0) }

// Name implements graph.Operator.
func (c *customOp) Name() string { return c.name }

// VMProgram implements vm.Programmed.
func (c *customOp) VMProgram() *vm.Program { return c.prog }

// Process implements graph.Operator.
func (c *customOp) Process(out graph.Submitter, t tuple.Tuple, inPort int) {
	if c.prog != nil {
		c.emit.out = out
		c.mach.Run(c.prog, t, &c.emit)
		c.emit.out = nil
		return
	}
	blk := c.blocks[inPort]
	if blk == nil {
		return
	}
	tv := refTup(t.Ref)
	var env *renv
	if c.state != nil {
		c.stateMu.Lock()
		defer c.stateMu.Unlock()
		env = newEnv(c.state)
	} else {
		env = newEnv(nil)
	}
	for _, f := range c.inTypes[inPort].Fields {
		env.vars[f.Name] = tv[f.Name]
	}
	env.vars[c.inNames[inPort]] = tv
	execBlock(blk, newEnv(env), func(_ string, res Tup) {
		// The checker guarantees the stream name; fill unassigned
		// attributes with their zero values.
		for _, f := range c.outType.Fields {
			if _, ok := res[f.Name]; !ok {
				res[f.Name] = zeroValue(f.Type)
			}
		}
		out.Submit(tuple.Tuple{Ref: res}, 0)
	})
}

// filterOp forwards tuples passing a checked boolean predicate.
type filterOp struct {
	name string
	pred Expr
	prog *vm.Program
	mach vm.Machine
	emit submitEmitter
}

// Name implements graph.Operator.
func (f *filterOp) Name() string { return f.name }

// VMProgram implements vm.Programmed.
func (f *filterOp) VMProgram() *vm.Program { return f.prog }

// Process implements graph.Operator.
func (f *filterOp) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if f.prog != nil {
		f.emit.out = out
		f.mach.Run(f.prog, t, &f.emit)
		f.emit.out = nil
		return
	}
	tv := refTup(t.Ref)
	env := newEnv(nil)
	for k, v := range tv {
		env.vars[k] = v
	}
	if eval(f.pred, env).(bool) {
		out.Submit(t, 0)
	}
}

// workOp burns a fixed flop cost per tuple and forwards it — the SPL
// surface for the paper's synthetic workloads.
type workOp struct {
	name string
	cost int
	// prog exists for fusion only: a bytecode spin-and-forward is no
	// faster than the direct call below, so unfused dispatch keeps the
	// closure path, but a chain can absorb this operator as a segment.
	prog *vm.Program
}

// Name implements graph.Operator.
func (w *workOp) Name() string { return w.name }

// VMProgram implements vm.Programmed.
func (w *workOp) VMProgram() *vm.Program { return w.prog }

// Process implements graph.Operator.
func (w *workOp) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if w.cost > 0 {
		ops.Spin(w.cost/2, t.Seq)
	}
	out.Submit(t, 0)
}

// FileSinkOp writes each tuple as one comma-separated line. Its local
// state is lock-protected exactly like the paper's Snk operator, because
// under the dynamic model different threads may execute it over time.
type FileSinkOp struct {
	name string
	file string
	typ  TupleType
	open func(string) (io.WriteCloser, error)

	mu    sync.Mutex
	w     io.WriteCloser
	bw    *bufio.Writer
	line  []byte // the line being formatted, reused across tuples
	count uint64
	fail  error
}

// Name implements graph.Operator.
func (s *FileSinkOp) Name() string { return s.name }

// File returns the configured output path.
func (s *FileSinkOp) File() string { return s.file }

// Count returns the number of tuples written.
func (s *FileSinkOp) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Err returns the first write error, if any.
func (s *FileSinkOp) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fail
}

// Process implements graph.Operator.
func (s *FileSinkOp) Process(_ graph.Submitter, t tuple.Tuple, _ int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return
	}
	if s.w == nil {
		w, err := s.open(s.file)
		if err != nil {
			s.fail = err
			return
		}
		s.w = w
		s.bw = bufio.NewWriter(w)
	}
	s.line = append(appendTuple(s.line[:0], t.Ref, s.typ), '\n')
	if _, err := s.bw.Write(s.line); err != nil {
		s.fail = err
		return
	}
	s.count++
}

// Finish implements graph.Finalizer: flush and close at final
// punctuation.
func (s *FileSinkOp) Finish(graph.Submitter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil && s.fail == nil {
			s.fail = err
		}
	}
	if s.w != nil {
		if err := s.w.Close(); err != nil && s.fail == nil {
			s.fail = err
		}
		s.w, s.bw = nil, nil
	}
}

// throttleOp paces a stream to a fixed rate, sleeping between forwards —
// SPL's Throttle.
type throttleOp struct {
	name     string
	interval time.Duration

	mu   sync.Mutex
	next time.Time
}

// Name implements graph.Operator.
func (o *throttleOp) Name() string { return o.name }

// Process implements graph.Operator.
func (o *throttleOp) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	o.mu.Lock()
	now := time.Now()
	if o.next.After(now) {
		wait := o.next.Sub(now)
		o.next = o.next.Add(o.interval)
		o.mu.Unlock()
		time.Sleep(wait)
	} else {
		o.next = now.Add(o.interval)
		o.mu.Unlock()
	}
	out.Submit(t, 0)
}

// punctorOp forwards tuples and emits a window punctuation after every
// `every` tuples — a simplified SPL Punctor.
type punctorOp struct {
	name  string
	every int64

	mu sync.Mutex
	n  int64
}

// Name implements graph.Operator.
func (o *punctorOp) Name() string { return o.name }

// Process implements graph.Operator.
func (o *punctorOp) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	out.Submit(t, 0)
	o.mu.Lock()
	o.n++
	fire := o.n%o.every == 0
	o.mu.Unlock()
	if fire {
		out.Submit(tuple.Window(), 0)
	}
}

// aggregateOp computes one aggregate value per count-based window —
// SPL's Aggregate with a tumbling count window. A partial window is
// flushed when the input stream closes (Finish), and a window
// punctuation follows every aggregate, as SPL windows emit.
type aggregateOp struct {
	name     string
	window   int64
	fn       string
	attr     string
	outAttr  string
	floatOut bool

	mu   sync.Mutex
	n    int64
	sumI int64
	sumF float64
	minI int64
	maxI int64
	minF float64
	maxF float64
}

// Name implements graph.Operator.
func (o *aggregateOp) Name() string { return o.name }

// Process implements graph.Operator.
func (o *aggregateOp) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	tv := refTup(t.Ref)
	o.mu.Lock()
	if o.attr != "" {
		switch v := tv[o.attr].(type) {
		case int64:
			if o.n == 0 {
				o.minI, o.maxI = v, v
			}
			o.sumI += v
			o.minI = min(o.minI, v)
			o.maxI = max(o.maxI, v)
		case float64:
			if o.n == 0 {
				o.minF, o.maxF = v, v
			}
			o.sumF += v
			o.minF = min(o.minF, v)
			o.maxF = max(o.maxF, v)
		}
	}
	o.n++
	fire := o.n == o.window
	var res Tup
	if fire {
		res = o.result()
		o.reset()
	}
	o.mu.Unlock()
	if fire {
		out.Submit(tuple.Tuple{Ref: res}, 0)
		out.Submit(tuple.Window(), 0)
	}
}

// Finish implements graph.Finalizer: flush a partial window.
func (o *aggregateOp) Finish(out graph.Submitter) {
	o.mu.Lock()
	var res Tup
	if o.n > 0 {
		res = o.result()
		o.reset()
	}
	o.mu.Unlock()
	if res != nil {
		out.Submit(tuple.Tuple{Ref: res}, 0)
	}
}

// result computes the aggregate for the current window; callers hold mu.
func (o *aggregateOp) result() Tup {
	var v Value
	switch o.fn {
	case "count":
		v = o.n
	case "avg":
		if o.floatOut && o.sumF != 0 {
			v = o.sumF / float64(o.n)
		} else {
			v = (float64(o.sumI) + o.sumF) / float64(o.n)
		}
	case "sum":
		if o.floatOut {
			v = o.sumF
		} else {
			v = o.sumI
		}
	case "min":
		if o.floatOut {
			v = o.minF
		} else {
			v = o.minI
		}
	case "max":
		if o.floatOut {
			v = o.maxF
		} else {
			v = o.maxI
		}
	}
	return Tup{o.outAttr: v}
}

// reset clears the window; callers hold mu.
func (o *aggregateOp) reset() {
	o.n, o.sumI, o.sumF = 0, 0, 0
	o.minI, o.maxI, o.minF, o.maxF = 0, 0, 0, 0
}

// dedupOp drops tuples whose key attribute equals the previous tuple's —
// a consecutive-duplicate filter with operator state.
type dedupOp struct {
	name string
	key  string

	mu   sync.Mutex
	seen bool
	last Value
}

// Name implements graph.Operator.
func (o *dedupOp) Name() string { return o.name }

// Process implements graph.Operator.
func (o *dedupOp) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	tv := refTup(t.Ref)
	k := tv[o.key]
	o.mu.Lock()
	dup := o.seen && valueEq(o.last, k)
	o.seen, o.last = true, k
	o.mu.Unlock()
	if !dup {
		out.Submit(t, 0)
	}
}

var (
	_ graph.Source = (*beaconOp)(nil)
	_ graph.Source = (*fileSourceOp)(nil)
)
