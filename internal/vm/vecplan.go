package vm

// vecplan.go translates a verified, bound Program from its stack form
// into a register plan the BatchMachine executes batch-at-a-time: one
// typed lane (a column of int64/float64/string) per SSA value, one
// dispatch per instruction per *batch* instead of per tuple, and a
// selection vector instead of per-tuple branches.
//
// The translation is an abstract interpretation of the stack code at
// plan time: every push allocates a fresh lane, OpLoad/OpStore become
// pure copy propagation (a slot is just a name for whichever lane last
// stored to it), constants intern to broadcast lanes filled once per
// lane (re)allocation, and the structured diamonds the compiler emits
// for &&/||/?: are if-converted into speculative execution of both
// sides plus a blend. Filters keep their scalar shape — a trailing
// conditional jump over the segment's emit — and become a prune of the
// selection vector between segments, which also preserves SegCounts
// parity: a segment's count is charged per surviving row on entry,
// exactly as the scalar interpreter's runSeg entry count.
//
// Anything outside that shape — backward jumps (loops), emits inside
// branches or not in tail position, multi-emit segments, OpDrop,
// builtins without a declared vectorization effect — makes PlanVec
// return an error and the program simply stays on the scalar path.
// Vectorization is an opt-in fast path, never a semantic fork: the
// plan's only observable effect is the final emit, every instruction
// before it is pure or replayable, so a mid-batch panic (which the
// BatchMachine raises before *any* emission) lets the scheduler
// re-run the whole batch through the scalar interpreter and get
// byte-identical values, ordering, SegCounts and panic attribution.

import "fmt"

// vecOp is a vectorized opcode; each executes over every row of the
// current selection vector.
type vecOp uint8

const (
	vAddI vecOp = iota
	vSubI
	vMulI
	vDivI
	vModI
	vNegI
	vAddF
	vSubF
	vMulF
	vDivF
	vNegF
	vCatS
	vEqI
	vNeI
	vLtI
	vLeI
	vGtI
	vGeI
	vEqF
	vNeF
	vLtF
	vLeF
	vGtF
	vGeF
	vEqS
	vNeS
	vLtS
	vLeS
	vGtS
	vGeS
	vNotB
	vBlendI
	vBlendF
	vBlendS
	vCall
)

// vop is one vectorized instruction: d, a, b index lanes in the bank
// the opcode implies (blends read the predicate from p; vCall's
// argument list lives in VecProgram.calls[x]). pc is the source
// instruction, kept for *Error attribution.
type vop struct {
	op      vecOp
	d, a, b int32
	p       int32
	x       int32
	pc      int32
}

// vlane names one lane: a bank (by Kind; KBool shares the int bank)
// and an index within it. idx < 0 means "undefined" in planner slot
// state and never appears in an executable plan.
type vlane struct {
	kind Kind
	idx  int32
}

func (l vlane) defined() bool { return l.idx >= 0 }

// bank collapses Kind onto the three lane banks.
func bank(k Kind) int {
	switch k {
	case KFloat:
		return 1
	case KStr:
		return 2
	default: // KInt, KBool
		return 0
	}
}

// vecCall is the side table for one vCall site.
type vecCall struct {
	fn   int32 // builtin index in prog.Builtins / prog.funcs
	args []vlane
	ret  Kind
}

// vecSeg is one operator segment of the plan: its op range, and the
// optional filter lane (a bool/int lane) pruning the selection vector
// after the segment's ops and before the next segment is charged.
type vecSeg struct {
	opsStart, opsEnd int32
	filter           int32 // int-bank lane, or -1
	name             string
}

// laneFill pre-broadcasts one constant into a lane whenever the
// BatchMachine (re)allocates lane storage.
type laneFillI struct {
	reg int32
	val int64
}
type laneFillF struct {
	reg int32
	val float64
}
type laneFillS struct {
	reg int32
	val string
}

// VecProgram is the vectorized plan for one Program. It is pure data
// shared by any number of BatchMachines; all mutable state lives in
// the machine.
type VecProgram struct {
	prog       *Program
	nI, nF, nS int32 // lane counts per bank
	fillI      []laneFillI
	fillF      []laneFillF
	fillS      []laneFillS
	ops        []vop
	calls      []vecCall
	segs       []vecSeg
	in         []vlane // destination lane per input layout field
	seqLane    int32   // int lane carrying tuple Seq per row, or -1
	// emitFresh is true when the finally emitted tuple is a rebuilt
	// template rather than the forwarded input row — i.e. when ANY
	// segment is Fresh, not just the last: a Fresh interior emit
	// replaces the template a forwarding tail then exposes, exactly as
	// runSeg threads tmpl. emitOut/emitCols are the layout and lanes of
	// the last Fresh emit, which EmitRows materializes per surviving
	// row; lanes are SSA (written once per batch), so they still hold
	// that segment's values after downstream segments and filters run.
	emitFresh bool
	emitOut   Layout
	emitCols  []vlane
}

// Prog returns the scalar program the plan was derived from.
func (vp *VecProgram) Prog() *Program { return vp.prog }

// vecFrame tracks one open structured diamond during planning.
type vecFrame struct {
	pred       vlane
	invert     bool  // conditional was OpJumpIfTrue
	elsePC     int32 // target of the conditional jump
	endPC      int32 // target of the unconditional jump; -1 until seen
	entryStack []vlane
	entrySlots []vlane
	thenStack  []vlane
	thenSlots  []vlane
}

type vecPlanner struct {
	p      *Program
	vp     *VecProgram
	constI map[int64]int32
	constF map[float64]int32
	constS map[string]int32
	stack  []vlane
	slots  []vlane
	frames []vecFrame
	// seqZero: after an interior Fresh emit the template tuple is
	// rebuilt with Seq 0, so a later OpLoadSeq must see the constant 0
	// rather than the input row's Seq — mirrored from runSeg's tmpl.
	seqZero bool
}

// PlanVec compiles a bound, verified program into a vectorized plan,
// or explains why the program must stay scalar.
func PlanVec(p *Program) (*VecProgram, error) {
	if p.codec == nil {
		return nil, fmt.Errorf("vm: planvec: program is unbound")
	}
	pl := &vecPlanner{
		p: p,
		vp: &VecProgram{
			prog:    p,
			seqLane: -1,
		},
		constI: map[int64]int32{},
		constF: map[float64]int32{},
		constS: map[string]int32{},
		slots:  make([]vlane, p.NumSlots),
	}
	for i := range pl.slots {
		pl.slots[i] = vlane{idx: -1}
	}

	// Input columns decode straight into fresh lanes.
	s0 := &p.Segs[0]
	pl.vp.in = make([]vlane, len(p.In.Fields))
	for i, f := range p.In.Fields {
		ln := pl.newLane(f.Kind)
		pl.vp.in[i] = ln
		pl.slots[s0.InBase+int32(i)] = ln
	}

	for si := range p.Segs {
		if err := pl.planSeg(si); err != nil {
			return nil, fmt.Errorf("vm: planvec: seg %d (%s): %w", si, p.Segs[si].Name, err)
		}
	}
	return pl.vp, nil
}

func (pl *vecPlanner) newLane(k Kind) vlane {
	var idx int32
	switch bank(k) {
	case 1:
		idx = pl.vp.nF
		pl.vp.nF++
	case 2:
		idx = pl.vp.nS
		pl.vp.nS++
	default:
		idx = pl.vp.nI
		pl.vp.nI++
	}
	return vlane{kind: k, idx: idx}
}

func (pl *vecPlanner) constLaneI(v int64) vlane {
	if idx, ok := pl.constI[v]; ok {
		return vlane{kind: KInt, idx: idx}
	}
	ln := pl.newLane(KInt)
	pl.constI[v] = ln.idx
	pl.vp.fillI = append(pl.vp.fillI, laneFillI{reg: ln.idx, val: v})
	return ln
}

func (pl *vecPlanner) constLaneF(v float64) vlane {
	if idx, ok := pl.constF[v]; ok {
		return vlane{kind: KFloat, idx: idx}
	}
	ln := pl.newLane(KFloat)
	pl.constF[v] = ln.idx
	pl.vp.fillF = append(pl.vp.fillF, laneFillF{reg: ln.idx, val: v})
	return ln
}

func (pl *vecPlanner) constLaneS(v string) vlane {
	if idx, ok := pl.constS[v]; ok {
		return vlane{kind: KStr, idx: idx}
	}
	ln := pl.newLane(KStr)
	pl.constS[v] = ln.idx
	pl.vp.fillS = append(pl.vp.fillS, laneFillS{reg: ln.idx, val: v})
	return ln
}

func (pl *vecPlanner) push(l vlane) { pl.stack = append(pl.stack, l) }

func (pl *vecPlanner) pop() (vlane, error) {
	if len(pl.stack) == 0 {
		return vlane{}, fmt.Errorf("stack underflow")
	}
	l := pl.stack[len(pl.stack)-1]
	pl.stack = pl.stack[:len(pl.stack)-1]
	return l, nil
}

// binOp pops b then a, allocates a result lane of kind rk and appends
// the vectorized op.
func (pl *vecPlanner) binOp(op vecOp, rk Kind, wantBank int, pc int32) error {
	b, err := pl.pop()
	if err != nil {
		return err
	}
	a, err := pl.pop()
	if err != nil {
		return err
	}
	if bank(a.kind) != wantBank || bank(b.kind) != wantBank {
		return fmt.Errorf("pc %d: operand kinds %v/%v for %d-bank op", pc, a.kind, b.kind, wantBank)
	}
	d := pl.newLane(rk)
	pl.vp.ops = append(pl.vp.ops, vop{op: op, d: d.idx, a: a.idx, b: b.idx, pc: pc})
	pl.push(d)
	return nil
}

// unOp pops one operand and pushes the result of op over it.
func (pl *vecPlanner) unOp(op vecOp, rk Kind, wantBank int, pc int32) error {
	a, err := pl.pop()
	if err != nil {
		return err
	}
	if bank(a.kind) != wantBank {
		return fmt.Errorf("pc %d: operand kind %v for %d-bank op", pc, a.kind, wantBank)
	}
	d := pl.newLane(rk)
	pl.vp.ops = append(pl.vp.ops, vop{op: op, d: d.idx, a: a.idx, pc: pc})
	pl.push(d)
	return nil
}

func snapLanes(s []vlane) []vlane { return append([]vlane(nil), s...) }

// blendOp maps a Kind onto its bank's blend opcode.
func blendOp(k Kind) vecOp {
	switch bank(k) {
	case 1:
		return vBlendF
	case 2:
		return vBlendS
	default:
		return vBlendI
	}
}

// merge if-converts one closed diamond: tStack/tSlots is the state
// after the fall-through (taken-when-pred-true for OpJumpIfFalse),
// eStack/eSlots after the jump target side. Values that differ blend
// under the predicate; slots defined on only one side become undefined
// (the compiler scopes such locals to the branch, so nothing reads
// them afterwards — an OpLoad of an undefined slot rejects the plan).
func (pl *vecPlanner) merge(f *vecFrame, tStack, tSlots, eStack, eSlots []vlane) error {
	if len(tStack) != len(eStack) {
		return fmt.Errorf("branch stack depths differ (%d vs %d)", len(tStack), len(eStack))
	}
	blend := func(t, e vlane) (vlane, error) {
		if t == e {
			return t, nil
		}
		if bank(t.kind) != bank(e.kind) {
			return vlane{}, fmt.Errorf("branch kinds differ (%v vs %v)", t.kind, e.kind)
		}
		a, b := t, e
		if f.invert {
			a, b = e, t
		}
		d := pl.newLane(t.kind)
		pl.vp.ops = append(pl.vp.ops, vop{op: blendOp(t.kind), d: d.idx, a: a.idx, b: b.idx, p: f.pred.idx})
		return d, nil
	}
	merged := make([]vlane, len(tStack))
	for i := range tStack {
		m, err := blend(tStack[i], eStack[i])
		if err != nil {
			return err
		}
		merged[i] = m
	}
	pl.stack = merged
	slots := make([]vlane, len(tSlots))
	for i := range tSlots {
		switch {
		case tSlots[i] == eSlots[i]:
			slots[i] = tSlots[i]
		case !tSlots[i].defined() || !eSlots[i].defined():
			slots[i] = vlane{idx: -1}
		default:
			m, err := blend(tSlots[i], eSlots[i])
			if err != nil {
				return err
			}
			slots[i] = m
		}
	}
	pl.slots = slots
	return nil
}

// closeFrames closes every diamond ending at pc: the innermost frame
// closes at its join point (endPC when an else side exists, elsePC
// when the conditional jumped straight to the join).
func (pl *vecPlanner) closeFrames(pc int32) error {
	for len(pl.frames) > 0 {
		f := &pl.frames[len(pl.frames)-1]
		switch {
		case f.endPC == pc:
			// Fall-through side was captured at the OpJump; current
			// state is the jump-target side.
			if err := pl.merge(f, f.thenStack, f.thenSlots, snapLanes(pl.stack), snapLanes(pl.slots)); err != nil {
				return err
			}
		case f.endPC == -1 && f.elsePC == pc:
			// No else side: the jump target IS the join; the untaken
			// side keeps the entry state.
			if err := pl.merge(f, snapLanes(pl.stack), snapLanes(pl.slots), f.entryStack, f.entrySlots); err != nil {
				return err
			}
		default:
			return nil
		}
		pl.frames = pl.frames[:len(pl.frames)-1]
	}
	return nil
}

func (pl *vecPlanner) planSeg(si int) error {
	p := pl.p
	seg := &p.Segs[si]
	vs := vecSeg{opsStart: int32(len(pl.vp.ops)), filter: -1, name: seg.Name}
	pl.frames = pl.frames[:0]
	pl.stack = pl.stack[:0]

	for pc := seg.Start; pc < seg.End; pc++ {
		if err := pl.closeFrames(pc); err != nil {
			return err
		}
		in := p.Code[pc]
		switch in.Op {
		case OpNop:

		case OpConstI:
			pl.push(pl.constLaneI(p.Ints[in.A]))
		case OpConstF:
			pl.push(pl.constLaneF(p.Floats[in.A]))
		case OpConstS:
			pl.push(pl.constLaneS(p.Strs[in.A]))

		case OpLoad:
			l := pl.slots[in.A]
			if !l.defined() {
				return fmt.Errorf("pc %d: load of undefined slot %d", pc, in.A)
			}
			pl.push(l)
		case OpStore:
			v, err := pl.pop()
			if err != nil {
				return err
			}
			pl.slots[in.A] = v
		case OpLoadSeq:
			if pl.seqZero {
				pl.push(pl.constLaneI(0))
			} else {
				if pl.vp.seqLane < 0 {
					pl.vp.seqLane = pl.newLane(KInt).idx
				}
				pl.push(vlane{kind: KInt, idx: pl.vp.seqLane})
			}
		case OpPop:
			if _, err := pl.pop(); err != nil {
				return err
			}

		case OpAddI:
			if err := pl.binOp(vAddI, KInt, 0, pc); err != nil {
				return err
			}
		case OpSubI:
			if err := pl.binOp(vSubI, KInt, 0, pc); err != nil {
				return err
			}
		case OpMulI:
			if err := pl.binOp(vMulI, KInt, 0, pc); err != nil {
				return err
			}
		case OpDivI:
			if err := pl.binOp(vDivI, KInt, 0, pc); err != nil {
				return err
			}
		case OpModI:
			if err := pl.binOp(vModI, KInt, 0, pc); err != nil {
				return err
			}
		case OpNegI:
			if err := pl.unOp(vNegI, KInt, 0, pc); err != nil {
				return err
			}

		case OpAddF:
			if err := pl.binOp(vAddF, KFloat, 1, pc); err != nil {
				return err
			}
		case OpSubF:
			if err := pl.binOp(vSubF, KFloat, 1, pc); err != nil {
				return err
			}
		case OpMulF:
			if err := pl.binOp(vMulF, KFloat, 1, pc); err != nil {
				return err
			}
		case OpDivF:
			if err := pl.binOp(vDivF, KFloat, 1, pc); err != nil {
				return err
			}
		case OpNegF:
			if err := pl.unOp(vNegF, KFloat, 1, pc); err != nil {
				return err
			}

		case OpCatS:
			if err := pl.binOp(vCatS, KStr, 2, pc); err != nil {
				return err
			}

		case OpEqI:
			if err := pl.binOp(vEqI, KBool, 0, pc); err != nil {
				return err
			}
		case OpNeI:
			if err := pl.binOp(vNeI, KBool, 0, pc); err != nil {
				return err
			}
		case OpLtI:
			if err := pl.binOp(vLtI, KBool, 0, pc); err != nil {
				return err
			}
		case OpLeI:
			if err := pl.binOp(vLeI, KBool, 0, pc); err != nil {
				return err
			}
		case OpGtI:
			if err := pl.binOp(vGtI, KBool, 0, pc); err != nil {
				return err
			}
		case OpGeI:
			if err := pl.binOp(vGeI, KBool, 0, pc); err != nil {
				return err
			}
		case OpEqF:
			if err := pl.binOp(vEqF, KBool, 1, pc); err != nil {
				return err
			}
		case OpNeF:
			if err := pl.binOp(vNeF, KBool, 1, pc); err != nil {
				return err
			}
		case OpLtF:
			if err := pl.binOp(vLtF, KBool, 1, pc); err != nil {
				return err
			}
		case OpLeF:
			if err := pl.binOp(vLeF, KBool, 1, pc); err != nil {
				return err
			}
		case OpGtF:
			if err := pl.binOp(vGtF, KBool, 1, pc); err != nil {
				return err
			}
		case OpGeF:
			if err := pl.binOp(vGeF, KBool, 1, pc); err != nil {
				return err
			}
		case OpEqS:
			if err := pl.binOp(vEqS, KBool, 2, pc); err != nil {
				return err
			}
		case OpNeS:
			if err := pl.binOp(vNeS, KBool, 2, pc); err != nil {
				return err
			}
		case OpLtS:
			if err := pl.binOp(vLtS, KBool, 2, pc); err != nil {
				return err
			}
		case OpLeS:
			if err := pl.binOp(vLeS, KBool, 2, pc); err != nil {
				return err
			}
		case OpGtS:
			if err := pl.binOp(vGtS, KBool, 2, pc); err != nil {
				return err
			}
		case OpGeS:
			if err := pl.binOp(vGeS, KBool, 2, pc); err != nil {
				return err
			}

		case OpNotB:
			if err := pl.unOp(vNotB, KBool, 0, pc); err != nil {
				return err
			}

		case OpJumpIfFalse, OpJumpIfTrue:
			if in.A <= pc {
				return fmt.Errorf("pc %d: backward jump", pc)
			}
			pred, err := pl.pop()
			if err != nil {
				return err
			}
			if bank(pred.kind) != 0 {
				return fmt.Errorf("pc %d: non-bool predicate", pc)
			}
			// Filter tail: a conditional jump straight over the final
			// emit becomes a selection-vector prune between segments.
			if in.Op == OpJumpIfFalse && in.A == seg.End && pc+2 == seg.End &&
				p.Code[pc+1].Op == OpEmit && len(pl.frames) == 0 {
				vs.filter = pred.idx
				continue
			}
			pl.frames = append(pl.frames, vecFrame{
				pred:       pred,
				invert:     in.Op == OpJumpIfTrue,
				elsePC:     in.A,
				endPC:      -1,
				entryStack: snapLanes(pl.stack),
				entrySlots: snapLanes(pl.slots),
			})

		case OpJump:
			if len(pl.frames) == 0 {
				return fmt.Errorf("pc %d: jump outside a diamond", pc)
			}
			f := &pl.frames[len(pl.frames)-1]
			if f.endPC != -1 || f.elsePC != pc+1 || in.A <= pc {
				return fmt.Errorf("pc %d: unstructured jump", pc)
			}
			f.thenStack = snapLanes(pl.stack)
			f.thenSlots = snapLanes(pl.slots)
			pl.stack = snapLanes(f.entryStack)
			pl.slots = snapLanes(f.entrySlots)
			f.endPC = in.A

		case OpCall:
			name := p.Builtins[in.A]
			info, ok := lookupBuiltinInfo(name)
			if !ok || info.effect == EffectImpure {
				return fmt.Errorf("pc %d: builtin %q has side effects", pc, name)
			}
			argc := int(in.B)
			if len(pl.stack) < argc {
				return fmt.Errorf("pc %d: stack underflow at call", pc)
			}
			args := snapLanes(pl.stack[len(pl.stack)-argc:])
			pl.stack = pl.stack[:len(pl.stack)-argc]
			d := pl.newLane(info.ret)
			pl.vp.calls = append(pl.vp.calls, vecCall{fn: in.A, args: args, ret: info.ret})
			pl.vp.ops = append(pl.vp.ops, vop{op: vCall, d: d.idx, x: int32(len(pl.vp.calls) - 1), pc: pc})
			pl.push(d)

		case OpEmit:
			if len(pl.frames) > 0 {
				return fmt.Errorf("pc %d: emit inside a branch", pc)
			}
			if pc != seg.End-1 {
				return fmt.Errorf("pc %d: emit not in tail position", pc)
			}
			cols := make([]vlane, seg.NOut)
			for k := int32(0); k < seg.NOut; k++ {
				l := pl.slots[seg.OutBase+k]
				if !l.defined() {
					return fmt.Errorf("pc %d: out slot %d undefined at emit", pc, seg.OutBase+k)
				}
				cols[k] = l
			}
			if seg.Fresh {
				// A Fresh emit rebuilds the template tuple the rest of
				// the chain forwards; the last one to run is what the
				// final emit exposes (whether that emit is itself Fresh
				// or a forwarding tail), so record it and let any later
				// Fresh emit overwrite it — the vectorized twin of
				// runSeg replacing tmpl, with needStore folded in: only
				// the surviving record is ever materialized.
				pl.vp.emitFresh = true
				pl.vp.emitOut = seg.Out
				pl.vp.emitCols = cols
			}
			if si < len(p.Segs)-1 {
				next := &p.Segs[si+1]
				for k := int32(0); k < next.NIn; k++ {
					pl.slots[next.InBase+k] = cols[k]
				}
				if seg.Fresh {
					pl.seqZero = true
				}
			}

		case OpDrop:
			return fmt.Errorf("pc %d: drop is not vectorizable", pc)

		default:
			return fmt.Errorf("pc %d: opcode %s is not vectorizable", pc, in.Op)
		}
	}
	if err := pl.closeFrames(seg.End); err != nil {
		return err
	}
	if len(pl.frames) > 0 {
		return fmt.Errorf("unclosed branch at segment end")
	}
	vs.opsEnd = int32(len(pl.vp.ops))
	pl.vp.segs = append(pl.vp.segs, vs)
	return nil
}
