// Package vm implements a small typed, stack-based bytecode VM over
// tuple values — the portable form of operator logic. SPL logic blocks
// and parameter expressions compile to Programs (internal/spl), native
// library operators can carry hand-assembled Programs (internal/ops),
// and the scheduler fuses linear runs of programmed operators into one
// superinstruction Program executed in a single dispatch loop per
// input tuple (internal/sched), extending inline chain execution past
// the per-operator Process call boundary.
//
// Programs are deterministic, encoding/binary-serializable and
// content-hashed (encode.go), so equal logic hashes equally across
// processes — the placement key distributed re-placement needs: a
// closure cannot move to another host, a bytecode program can.
//
// The value model is deliberately small: a Val is an unboxed
// (int64, float64, string) triple and every opcode is typed (OpAddI
// vs OpAddF vs OpCatS), so the common int/float paths never box into
// interfaces and never dispatch on a runtime tag. Booleans live in the
// int lane as 0/1. A list of strings — the one aggregate operator logic
// needs to tokenize and pick apart text — also lives in the int lane,
// as an (offset, length) span into the running Machine's string arena
// (list.go): Val stays 32 bytes, slicing is span arithmetic, indexing
// is one bounds-checked load, and the arena is reset by every Run, so
// lists are operator-local temporaries that never reach a tuple
// layout, a frame or the wire. Verify tracks which stack cells and
// slots hold lists, so a span can only ever be read by the Run that
// built it. Operators whose logic needs richer values still (lists of
// other element types, nested tuples, state) do not compile and keep
// their closure path — the VM is an opt-in fast path, never a semantic
// fork.
package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"streams/internal/tuple"
)

// Kind is the static type of a slot, stack cell or tuple attribute.
type Kind uint8

const (
	// KInt is a 64-bit signed integer (SPL int32/int64 both widen here).
	KInt Kind = iota
	// KFloat is a 64-bit float.
	KFloat
	// KStr is an immutable string (SPL rstring and timestamp).
	KStr
	// KBool is a boolean carried in the int lane as 0/1.
	KBool
	// KList is a list of strings: a span into the Machine's arena carried
	// in the int lane (list.go). It types stack cells and local slots
	// only; Verify rejects it in any Layout.
	KList
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KStr:
		return "str"
	case KBool:
		return "bool"
	case KList:
		return "list"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Val is one unboxed VM value. Exactly one lane is meaningful; the
// static Kind of the producing opcode or slot says which. Keeping all
// three lanes in one struct trades 24 bytes of width for tag-free
// dispatch: the interpreter never asks a value what it is.
type Val struct {
	// I is the int lane (ints, booleans and list spans).
	I int64
	// F is the float lane.
	F float64
	// S is the string lane.
	S string
}

// Field is one named, typed tuple attribute in a Layout.
type Field struct {
	// Name is the attribute name.
	Name string
	// Kind is the attribute's VM type.
	Kind Kind
}

// Layout maps a tuple type onto a contiguous slot window: attribute i
// of the layout lives at slot window[i]. Attribute-index resolution
// happens once at compile time; at run time the boundary codec walks
// the layout in order and the program body addresses slots by index —
// no per-tuple map lookups.
type Layout struct {
	// Fields are the attributes in slot order.
	Fields []Field
}

// Equal reports whether two layouts agree in names and kinds.
func (l Layout) Equal(o Layout) bool {
	if len(l.Fields) != len(o.Fields) {
		return false
	}
	for i, f := range l.Fields {
		if o.Fields[i] != f {
			return false
		}
	}
	return true
}

// Op is a bytecode opcode. The numbering is part of the serialized
// format: append new opcodes before numOps, never renumber.
type Op uint16

const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpConstI pushes Ints[A].
	OpConstI
	// OpConstF pushes Floats[A].
	OpConstF
	// OpConstS pushes Strs[A].
	OpConstS
	// OpLoad pushes slot A.
	OpLoad
	// OpStore pops into slot A.
	OpStore
	// OpLoadSeq pushes the current template tuple's Seq as an int.
	OpLoadSeq
	// OpPop discards the top of stack.
	OpPop

	// OpAddI..OpNegI are int arithmetic. OpDivI and OpModI panic with
	// *Error on a zero divisor, matching the closure evaluator.
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpNegI

	// OpAddF..OpNegF are float arithmetic; division by zero yields
	// ±Inf/NaN per Go semantics, again matching the closure evaluator.
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF

	// OpCatS concatenates two strings.
	OpCatS

	// Comparisons pop two operands and push a bool (0/1 in the int
	// lane), one typed family per lane.
	OpEqI
	OpNeI
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpEqF
	OpNeF
	OpLtF
	OpLeF
	OpGtF
	OpGeF
	OpEqS
	OpNeS
	OpLtS
	OpLeS
	OpGtS
	OpGeS

	// OpNotB negates a bool.
	OpNotB

	// OpJump sets pc to A (a segment-absolute code index; A may equal
	// the segment end, meaning return).
	OpJump
	// OpJumpIfFalse pops a bool and jumps to A when it is 0.
	OpJumpIfFalse
	// OpJumpIfTrue pops a bool and jumps to A when it is 1.
	OpJumpIfTrue

	// OpCall pops B arguments (last argument on top) and calls bound
	// builtin Builtins[A], pushing its result.
	OpCall
	// OpEmit emits the tuple currently materialized in the segment's
	// out window: the last segment's emit produces an output tuple,
	// an inner segment's emit feeds the next segment inline.
	OpEmit
	// OpDrop ends the current segment immediately without emitting —
	// the filter-drop path.
	OpDrop

	// OpIndexL pops an int index and a list and pushes the element as a
	// string; an index outside the list panics with *Error.
	OpIndexL
	// OpSliceL pops int bounds hi and lo and a list and pushes the
	// sub-list [lo, hi), both bounds clamped into the list like the
	// closure evaluator's tolerant slicing — pure span arithmetic.
	OpSliceL
	// OpMakeL pops A strings (last element on top) and pushes the list
	// of them, appended to the arena.
	OpMakeL
	// OpCallL is OpCall for list builtins (ListFunc): those taking or
	// returning a list, which need the machine's arena.
	OpCallL

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpConstI: "const.i", OpConstF: "const.f", OpConstS: "const.s",
	OpLoad: "load", OpStore: "store", OpLoadSeq: "load.seq", OpPop: "pop",
	OpAddI: "add.i", OpSubI: "sub.i", OpMulI: "mul.i", OpDivI: "div.i", OpModI: "mod.i", OpNegI: "neg.i",
	OpAddF: "add.f", OpSubF: "sub.f", OpMulF: "mul.f", OpDivF: "div.f", OpNegF: "neg.f",
	OpCatS: "cat.s",
	OpEqI:  "eq.i", OpNeI: "ne.i", OpLtI: "lt.i", OpLeI: "le.i", OpGtI: "gt.i", OpGeI: "ge.i",
	OpEqF: "eq.f", OpNeF: "ne.f", OpLtF: "lt.f", OpLeF: "le.f", OpGtF: "gt.f", OpGeF: "ge.f",
	OpEqS: "eq.s", OpNeS: "ne.s", OpLtS: "lt.s", OpLeS: "le.s", OpGtS: "gt.s", OpGeS: "ge.s",
	OpNotB: "not.b",
	OpJump: "jump", OpJumpIfFalse: "jump.false", OpJumpIfTrue: "jump.true",
	OpCall: "call", OpEmit: "emit", OpDrop: "drop",
	OpIndexL: "index.l", OpSliceL: "slice.l", OpMakeL: "make.l", OpCallL: "call.l",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint16(o))
}

// Instr is one fixed-width instruction. Fixed width keeps decode
// trivial and fusion relocation a pure index shift.
type Instr struct {
	// Op is the opcode.
	Op Op
	// A is the first operand (constant index, slot, target, builtin).
	A int32
	// B is the second operand (argument count for OpCall and OpCallL).
	B int32
}

// Seg is one operator's code and slot region inside a Program. A
// single-operator program has exactly one segment; Fuse concatenates
// segments with disjoint slot regions so an inner emit can hand its
// out window to the next segment's in window without clobbering live
// locals (a filter's out window aliases its in window, and a custom
// segment may emit more than once and keep running).
type Seg struct {
	// Start and End delimit the segment's code, [Start, End).
	Start int32
	// End is one past the segment's last instruction; a pc of End (or
	// OpDrop) returns from the segment.
	End int32
	// InBase is the first slot of the input attribute window.
	InBase int32
	// NIn is the input window length.
	NIn int32
	// OutBase is the first slot of the output attribute window; for
	// forwarding operators (filter, work) it aliases InBase.
	OutBase int32
	// NOut is the output window length.
	NOut int32
	// Fresh marks segments whose emit builds a fresh payload from the
	// out window (custom operators); forwarding segments pass the
	// template tuple through unchanged.
	Fresh bool
	// Name is the owning operator's name, for fault attribution and
	// disassembly.
	Name string
	// Out is the output window's layout (used by Fresh emits and by
	// fusion compatibility checks).
	Out Layout
}

// Program is one compiled, serializable unit of operator logic. The
// exported fields are the portable form covered by Encode and the
// content hash; codec and funcs are process-local bindings
// re-established with Bind after decode.
type Program struct {
	// In is the first segment's input layout.
	In Layout
	// NumSlots is the total slot count across all segments' windows
	// and locals.
	NumSlots int32
	// MaxStack bounds the operand stack (summed across segments when
	// fused, since inner emits run nested segments on one stack).
	MaxStack int32
	// Code is the instruction stream, all segments concatenated.
	Code []Instr
	// Ints, Floats and Strs are the constant pools.
	Ints   []int64
	Floats []float64
	Strs   []string
	// Builtins are the names OpCall and OpCallL resolve through the
	// registry at Bind time (signature-mangled, e.g. "substring:sii",
	// "tokenize:ssb>l").
	Builtins []string
	// Segs are the operator segments in execution order (≥ 1).
	Segs []Seg

	codec RefCodec
	// funcs and lfuncs are indexed like Builtins; each name binds in
	// exactly one of them, chosen by its signature (sigOf).
	funcs  []BuiltinFunc
	lfuncs []ListFunc
	// needStore, computed by Verify, is per-segment: false when the
	// segment is Fresh but its emit payload can never be observed (some
	// later segment is also Fresh, so the template is replaced before
	// any final forwarding emit could expose it) — the interpreter
	// skips the codec Store entirely for those emits.
	needStore []bool
	// vecMin is the smallest batch size worth vectorizing for this
	// program (0 = DefaultVecMinBatch). Process-local tuning set by the
	// compiler's vectorizability pass, not part of the serialized form.
	vecMin int32
}

// DefaultVecMinBatch is the batch-size cutoff below which the
// scheduler runs a vectorizable program through the scalar
// interpreter: lane setup and selection-vector bookkeeping are
// amortized over the batch, and under a handful of rows the scalar
// loop wins.
const DefaultVecMinBatch = 8

// SetVecMinBatch tunes the program's vectorization cutoff (satellite
// of the compiler's vectorizability pass). Zero restores the default.
func (p *Program) SetVecMinBatch(n int) { p.vecMin = int32(n) }

// VecMinBatch returns the smallest batch size the scheduler should
// vectorize for this program.
func (p *Program) VecMinBatch() int {
	if p.vecMin <= 0 {
		return DefaultVecMinBatch
	}
	return int(p.vecMin)
}

// RefCodec bridges tuple payloads (tuple.Tuple.Ref) and slot windows.
// The VM cannot name concrete payload types (internal/spl's Tup is a
// named map type the spl package owns), so the owning package supplies
// the conversion and the program carries it after Bind. Load may panic
// on a malformed payload exactly as the closure path's type assertion
// would.
type RefCodec interface {
	// Load decodes t's payload into slots, one attribute per layout
	// field, in order.
	Load(t *tuple.Tuple, in Layout, slots []Val)
	// Store builds a fresh payload from slots per the layout.
	Store(slots []Val, out Layout) any
}

// BatchStore builds payloads without a per-tuple allocation: the
// owning codec amortizes allocation over many Append calls (internal/
// spl backs one with a columnar frame arena shared by a whole batch).
// A BatchStore is single-threaded, like the Machine that owns it.
type BatchStore interface {
	// Append builds a payload from slots per the layout, exactly like
	// RefCodec.Store, but may return interior pointers into storage
	// shared with earlier Append results. Returned payloads must stay
	// immutable and valid indefinitely (they ride on emitted tuples).
	Append(vals []Val, out Layout) any
}

// BatchStorer is an optional RefCodec extension. Codecs that implement
// it give each Machine/BatchMachine a private BatchStore, making the
// emit side allocation-free in steady state; codecs that do not fall
// back to per-emit Store.
type BatchStorer interface {
	NewBatchStore() BatchStore
}

type identityCodec struct{}

func (identityCodec) Load(*tuple.Tuple, Layout, []Val) {}
func (identityCodec) Store([]Val, Layout) any          { return nil }
func (identityCodec) NewBatchStore() BatchStore        { return identityStore{} }

type identityStore struct{}

func (identityStore) Append([]Val, Layout) any { return nil }

// Identity is the codec for programs with empty layouts whose tuples
// carry their payload inline (native library operators): nothing to
// decode, forwarding keeps the tuple bit-identical.
var Identity RefCodec = identityCodec{}

// BuiltinFunc is a bound builtin. It may panic (with *Error or the
// closure evaluator's own runtime-error type) exactly as the closure
// path would; the span recovery above the operator contains either.
type BuiltinFunc func(args []Val) Val

// Effect classifies a builtin for the vectorizer. The scheme exists
// because vectorized execution reorders work (instruction-major instead
// of tuple-major) and recovers from mid-batch panics by re-running the
// whole batch through the scalar interpreter — both are only sound for
// builtins whose calls can be reordered and repeated.
type Effect uint8

const (
	// EffectImpure is the default for builtins that never declared an
	// effect: assumed to have observable side effects, so any program
	// calling one is rejected by PlanVec and stays on the scalar path.
	EffectImpure Effect = iota
	// EffectPure builtins depend only on their arguments and have no
	// side effects (substring, length, toInt...).
	EffectPure
	// EffectReplay builtins have side effects that are harmless to
	// repeat or reorder (spin's CPU burn): vectorizable, and safe to
	// re-execute when a batch replays scalar after a panic.
	EffectReplay
)

// builtinInfo is the vectorizer-facing half of a builtin registration:
// its effect class and its result kind (the signature-mangled name
// encodes argument kinds but not the return, and the planner needs the
// return kind to type the destination lane).
type builtinInfo struct {
	effect Effect
	ret    Kind
}

var (
	regMu       sync.RWMutex
	builtinReg  = map[string]BuiltinFunc{}
	listReg     = map[string]ListFunc{}
	builtinMeta = map[string]builtinInfo{}
)

// sig is the signature a builtin's mangled name carries after the
// colon: one kind letter per argument (i, f, s, b, or l for a list)
// and, for builtins returning a list, a trailing ">l". Verify reads it
// to check call arity and to type list arguments and results, so it
// must not depend on the process-local registry.
type sig struct {
	args    string
	retList bool
}

// sigOf parses name's signature; ok is false when the name carries
// none or it is malformed.
func sigOf(name string) (sg sig, ok bool) {
	i := strings.IndexByte(name, ':')
	if i < 0 {
		return sig{}, false
	}
	sg.args, sg.retList = strings.CutSuffix(name[i+1:], ">l")
	for _, c := range []byte(sg.args) {
		if !strings.ContainsRune("ifsbl", rune(c)) {
			return sig{}, false
		}
	}
	return sg, true
}

// list reports whether the builtin takes or returns a list — whether
// it is a ListFunc called by OpCallL rather than a BuiltinFunc.
func (sg sig) list() bool { return sg.retList || strings.IndexByte(sg.args, 'l') >= 0 }

// RegisterBuiltin installs a scalar builtin under a signature-mangled
// name ("substring:sii"). Registration happens in package init
// functions (spl, ops); duplicate, unmangled or list-typed names panic
// to surface mistakes immediately.
func RegisterBuiltin(name string, fn BuiltinFunc) {
	register(name, false, func() { builtinReg[name] = fn })
}

// RegisterListBuiltin installs a builtin that takes or returns a list
// ("flatten:l", "tokenize:ssb>l").
func RegisterListBuiltin(name string, fn ListFunc) {
	register(name, true, func() { listReg[name] = fn })
}

func register(name string, list bool, install func()) {
	regMu.Lock()
	defer regMu.Unlock()
	if sg, ok := sigOf(name); !ok || sg.list() != list {
		panic("vm: builtin " + name + " has a missing or mismatched signature")
	}
	_, dup := builtinReg[name]
	_, ldup := listReg[name]
	if dup || ldup {
		panic("vm: duplicate builtin " + name)
	}
	install()
}

// RegisterBuiltinInfo declares a builtin's effect class and result
// kind for the vectorizer. Builtins without an info record default to
// EffectImpure and are never vectorized; the scalar interpreter needs
// neither field, so old registrations keep working unchanged.
func RegisterBuiltinInfo(name string, e Effect, ret Kind) {
	regMu.Lock()
	defer regMu.Unlock()
	builtinMeta[name] = builtinInfo{effect: e, ret: ret}
}

// lookupBuiltinInfo returns the info record for name, defaulting to
// EffectImpure when the builtin never declared one.
func lookupBuiltinInfo(name string) (builtinInfo, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	bi, ok := builtinMeta[name]
	return bi, ok
}

// Builtins returns the registered builtin names, sorted (diagnostics).
func Builtins() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(builtinReg)+len(listReg))
	for n := range builtinReg {
		names = append(names, n)
	}
	for n := range listReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Bind attaches the process-local halves a decoded or freshly built
// program needs to run: the payload codec and the builtin functions
// its name table references. Bind fails if any builtin is unknown —
// a program shipped from a newer build degrades to the closure path
// instead of crashing mid-tuple.
func (p *Program) Bind(codec RefCodec) error {
	funcs := make([]BuiltinFunc, len(p.Builtins))
	lfuncs := make([]ListFunc, len(p.Builtins))
	regMu.RLock()
	defer regMu.RUnlock()
	for i, name := range p.Builtins {
		var ok bool
		if sg, _ := sigOf(name); sg.list() {
			lfuncs[i], ok = listReg[name]
		} else {
			funcs[i], ok = builtinReg[name]
		}
		if !ok {
			return fmt.Errorf("vm: unknown builtin %q", name)
		}
	}
	p.codec = codec
	p.funcs = funcs
	p.lfuncs = lfuncs
	return nil
}

// Codec returns the codec bound to the program (nil before Bind).
func (p *Program) Codec() RefCodec { return p.codec }

// Programmed is implemented by operators that carry a compiled VM
// program alongside their closure path. The scheduler and the splc
// disassembler discover programs through this interface; a nil return
// means "closure only" for this instance.
type Programmed interface {
	VMProgram() *Program
}

// Error is a VM runtime error. It panics out of Machine.Run exactly
// as the closure evaluator's RuntimeError panics out of Process, so
// the scheduler's span recovery contains both identically.
type Error struct {
	// Seg is the segment index that was executing.
	Seg int
	// PC is the faulting instruction's code index.
	PC int32
	// Msg describes the fault.
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("vm: seg %d pc %d: %s", e.Seg, e.PC, e.Msg)
}
