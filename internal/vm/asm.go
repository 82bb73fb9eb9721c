package vm

import (
	"fmt"
	"math"
)

// Builder assembles a single-segment program: it pools constants,
// resolves builtin names to indices, tracks the operand-stack
// high-water mark and patches forward jumps. Both the SPL bytecode
// compiler and the native operator library build programs through it.
//
// Stack accounting is linear (effects summed in code order), which
// overestimates whenever a jump skips pushes. It never underestimates
// as long as every skipped region has a non-negative net stack effect
// — true for all lowerings here, where jumps only ever skip an
// expression branch (net +1) or a balanced statement block (net 0).
type Builder struct {
	code     []Instr
	ints     []int64
	intIdx   map[int64]int32
	floats   []float64
	floatIdx map[uint64]int32
	strs     []string
	strIdx   map[string]int32
	builtins []string
	bIdx     map[string]int32
	depth    int32
	maxDepth int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		intIdx:   map[int64]int32{},
		floatIdx: map[uint64]int32{},
		strIdx:   map[string]int32{},
		bIdx:     map[string]int32{},
	}
}

// Here returns the next instruction's pc (the current jump target).
func (b *Builder) Here() int32 { return int32(len(b.code)) }

// Depth returns the current modeled stack depth (for sanity asserts).
func (b *Builder) Depth() int32 { return b.depth }

// effect is each opcode's net stack effect (the calls and OpMakeL,
// whose effect depends on an operand, are special-cased).
func effect(op Op) int32 {
	switch op {
	case OpConstI, OpConstF, OpConstS, OpLoad, OpLoadSeq:
		return 1
	case OpSliceL:
		return -2
	case OpStore, OpPop, OpJumpIfFalse, OpJumpIfTrue, OpIndexL,
		OpAddI, OpSubI, OpMulI, OpDivI, OpModI,
		OpAddF, OpSubF, OpMulF, OpDivF, OpCatS,
		OpEqI, OpNeI, OpLtI, OpLeI, OpGtI, OpGeI,
		OpEqF, OpNeF, OpLtF, OpLeF, OpGtF, OpGeF,
		OpEqS, OpNeS, OpLtS, OpLeS, OpGtS, OpGeS:
		return -1
	default:
		return 0
	}
}

// Ins appends an instruction and returns its pc.
func (b *Builder) Ins(op Op, a, arg2 int32) int32 {
	pc := b.Here()
	b.code = append(b.code, Instr{Op: op, A: a, B: arg2})
	switch op {
	case OpCall, OpCallL:
		b.depth += 1 - arg2
	case OpMakeL:
		b.depth += 1 - a
	default:
		b.depth += effect(op)
	}
	if b.depth > b.maxDepth {
		b.maxDepth = b.depth
	}
	return pc
}

// Op appends a no-operand instruction.
func (b *Builder) Op(op Op) int32 { return b.Ins(op, 0, 0) }

// ConstI pushes an int constant through the pool.
func (b *Builder) ConstI(v int64) {
	i, ok := b.intIdx[v]
	if !ok {
		i = int32(len(b.ints))
		b.ints = append(b.ints, v)
		b.intIdx[v] = i
	}
	b.Ins(OpConstI, i, 0)
}

// ConstB pushes a bool constant (the int lane).
func (b *Builder) ConstB(v bool) {
	if v {
		b.ConstI(1)
	} else {
		b.ConstI(0)
	}
}

// ConstF pushes a float constant (pooled by bit pattern, so NaNs
// dedupe deterministically).
func (b *Builder) ConstF(v float64) {
	k := math.Float64bits(v)
	i, ok := b.floatIdx[k]
	if !ok {
		i = int32(len(b.floats))
		b.floats = append(b.floats, v)
		b.floatIdx[k] = i
	}
	b.Ins(OpConstF, i, 0)
}

// ConstS pushes a string constant through the pool.
func (b *Builder) ConstS(v string) {
	i, ok := b.strIdx[v]
	if !ok {
		i = int32(len(b.strs))
		b.strs = append(b.strs, v)
		b.strIdx[v] = i
	}
	b.Ins(OpConstS, i, 0)
}

// Call appends a builtin call by mangled name: OpCallL when the name's
// signature takes or returns a list, OpCall otherwise.
func (b *Builder) Call(name string, argc int32) {
	op := OpCall
	if sg, _ := sigOf(name); sg.list() {
		op = OpCallL
	}
	b.Ins(op, b.builtin(name), argc)
}

// builtin interns name in the program's builtin table.
func (b *Builder) builtin(name string) int32 {
	i, ok := b.bIdx[name]
	if !ok {
		i = int32(len(b.builtins))
		b.builtins = append(b.builtins, name)
		b.bIdx[name] = i
	}
	return i
}

// Jump appends a jump with an unresolved target; Patch resolves it.
func (b *Builder) Jump(op Op) int32 { return b.Ins(op, -1, 0) }

// Patch points the jump at pc to the current position.
func (b *Builder) Patch(pc int32) { b.code[pc].A = b.Here() }

// PatchTo points the jump at pc to target.
func (b *Builder) PatchTo(pc, target int32) { b.code[pc].A = target }

// Finish seals the builder into a verified single-segment program.
// The caller supplies the segment's window geometry (bases relative
// to slot 0) and numSlots, the total including locals.
func (b *Builder) Finish(seg Seg, in Layout, numSlots int32) (*Program, error) {
	seg.Start = 0
	seg.End = b.Here()
	p := &Program{
		In:       in,
		NumSlots: numSlots,
		MaxStack: b.maxDepth,
		Code:     b.code,
		Ints:     b.ints,
		Floats:   b.floats,
		Strs:     b.strs,
		Builtins: b.builtins,
		Segs:     []Seg{seg},
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("vm: assembled program invalid: %w", err)
	}
	return p, nil
}
