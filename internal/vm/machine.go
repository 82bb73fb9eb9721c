package vm

import (
	"streams/internal/tuple"
)

// Emitter receives output tuples from Machine.Run. It is an interface
// rather than a func so operators can keep one reusable adapter and
// pay no per-tuple closure allocation on the hot path.
type Emitter interface {
	Emit(t tuple.Tuple)
}

// EmitFunc adapts a function to Emitter (tests, one-off callers).
type EmitFunc func(tuple.Tuple)

// Emit implements Emitter.
func (f EmitFunc) Emit(t tuple.Tuple) { f(t) }

// Machine executes programs. It owns the operand stack, the slot
// file and per-segment entry counts, all reused across runs so the
// steady state allocates nothing. A Machine is single-threaded;
// callers keep one per worker (or pool them).
type Machine struct {
	stack  []Val
	slots  []Val
	counts []uint64
	args   []Val
	seg    int
	// arena holds the lists the current Run has built (list.go).
	arena Arena
	// scratch is the decode staging tuple: Run copies its input here so
	// the &tuple passed into the codec's Load (an interface call the
	// compiler can't see through) escapes to the machine, not to a
	// fresh heap copy per run.
	scratch tuple.Tuple
	// store is the per-machine batch store for Fresh emits, created
	// lazily from the bound codec when it implements BatchStorer;
	// storeFor remembers which codec built it so a program switch with
	// a different codec rebuilds it.
	store    BatchStore
	storeFor RefCodec
}

// Reset sizes the machine for p and clears the per-segment counts.
// It also zeroes the stack and slot files and the list arena: a retired
// program's stale Vals (string lanes especially) and the last tuple's
// tokens must not pin their backing memory for the lifetime of the
// machine. Call it when switching programs; Run
// calls it implicitly when the buffers are too small.
func (m *Machine) Reset(p *Program) {
	if cap(m.stack) < int(p.MaxStack) {
		m.stack = make([]Val, p.MaxStack)
	}
	m.stack = m.stack[:cap(m.stack)]
	if cap(m.slots) < int(p.NumSlots) {
		m.slots = make([]Val, p.NumSlots)
	}
	m.slots = m.slots[:cap(m.slots)]
	for i := range m.stack {
		m.stack[i] = Val{}
	}
	for i := range m.slots {
		m.slots[i] = Val{}
	}
	clear(m.arena.strs[:cap(m.arena.strs)])
	m.arena.strs = m.arena.strs[:0]
	if cap(m.counts) < len(p.Segs) {
		m.counts = make([]uint64, len(p.Segs))
	}
	m.counts = m.counts[:len(p.Segs)]
	for i := range m.counts {
		m.counts[i] = 0
	}
}

// storeRef builds a Fresh emit's payload, through the machine's batch
// store when the codec provides one (no per-tuple allocation) and
// through plain Store otherwise.
func (m *Machine) storeRef(p *Program, vals []Val, out Layout) any {
	if m.storeFor != p.codec {
		m.storeFor = p.codec
		m.store = nil
		if bs, ok := p.codec.(BatchStorer); ok {
			m.store = bs.NewBatchStore()
		}
	}
	if m.store != nil {
		return m.store.Append(vals, out)
	}
	return p.codec.Store(vals, out)
}

// SegCounts returns how many tuples entered each segment since the
// last Reset. The scheduler charges per-node executed counters from
// this after a fused batch: a filter segment that drops mid-program
// means downstream segments saw fewer tuples.
func (m *Machine) SegCounts() []uint64 { return m.counts }

// CurSeg returns the segment index that was executing most recently —
// after a recovered panic, the segment (and so the operator) to blame.
func (m *Machine) CurSeg() int { return m.seg }

// Run executes p over the input tuple t, calling emit for each output
// tuple. Forwarding segments pass t through unchanged (preserving
// Seq, Stamp and payload words exactly as the closure path's
// out.Submit(t, 0) does); fresh segments emit a new tuple whose Ref
// the bound codec builds from the out window. Runtime errors panic
// with *Error (or a builtin's own panic); callers contain them at the
// same span boundary that contains closure panics.
func (m *Machine) Run(p *Program, t tuple.Tuple, emit Emitter) {
	if len(m.slots) < int(p.NumSlots) || len(m.stack) < int(p.MaxStack) || len(m.counts) != len(p.Segs) {
		m.Reset(p)
	}
	s0 := &p.Segs[0]
	m.arena.strs = m.arena.strs[:0]
	m.scratch = t
	p.codec.Load(&m.scratch, p.In, m.slots[s0.InBase:s0.InBase+s0.NIn])
	m.runSeg(p, 0, t, 0, emit)
	m.scratch = tuple.Tuple{}
}

// runSeg interprets one segment. tmpl is the template tuple the
// segment would forward; sp is the operand-stack base (nested
// segments share one stack, each running in the region above its
// caller's live temporaries). An inner emit copies the out window
// into the next segment's in window and recurses — depth is bounded
// by the segment count, i.e. the fused chain length.
func (m *Machine) runSeg(p *Program, si int, tmpl tuple.Tuple, sp int, emit Emitter) {
	m.seg = si
	m.counts[si]++
	seg := &p.Segs[si]
	code := p.Code
	stack := m.stack
	slots := m.slots
	pc := seg.Start
	for pc < seg.End {
		in := code[pc]
		pc++
		switch in.Op {
		case OpNop:
		case OpConstI:
			stack[sp].I = p.Ints[in.A]
			sp++
		case OpConstF:
			stack[sp].F = p.Floats[in.A]
			sp++
		case OpConstS:
			stack[sp].S = p.Strs[in.A]
			sp++
		case OpLoad:
			stack[sp] = slots[in.A]
			sp++
		case OpStore:
			sp--
			slots[in.A] = stack[sp]
		case OpLoadSeq:
			stack[sp].I = int64(tmpl.Seq)
			sp++
		case OpPop:
			sp--

		case OpAddI:
			sp--
			stack[sp-1].I += stack[sp].I
		case OpSubI:
			sp--
			stack[sp-1].I -= stack[sp].I
		case OpMulI:
			sp--
			stack[sp-1].I *= stack[sp].I
		case OpDivI:
			sp--
			if stack[sp].I == 0 {
				panic(&Error{Seg: si, PC: pc - 1, Msg: "division by zero"})
			}
			stack[sp-1].I /= stack[sp].I
		case OpModI:
			sp--
			if stack[sp].I == 0 {
				panic(&Error{Seg: si, PC: pc - 1, Msg: "modulo by zero"})
			}
			stack[sp-1].I %= stack[sp].I
		case OpNegI:
			stack[sp-1].I = -stack[sp-1].I

		case OpAddF:
			sp--
			stack[sp-1].F += stack[sp].F
		case OpSubF:
			sp--
			stack[sp-1].F -= stack[sp].F
		case OpMulF:
			sp--
			stack[sp-1].F *= stack[sp].F
		case OpDivF:
			sp--
			stack[sp-1].F /= stack[sp].F
		case OpNegF:
			stack[sp-1].F = -stack[sp-1].F

		case OpCatS:
			sp--
			stack[sp-1].S += stack[sp].S

		case OpEqI:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].I == stack[sp].I)
		case OpNeI:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].I != stack[sp].I)
		case OpLtI:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].I < stack[sp].I)
		case OpLeI:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].I <= stack[sp].I)
		case OpGtI:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].I > stack[sp].I)
		case OpGeI:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].I >= stack[sp].I)

		case OpEqF:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].F == stack[sp].F)
		case OpNeF:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].F != stack[sp].F)
		case OpLtF:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].F < stack[sp].F)
		case OpLeF:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].F <= stack[sp].F)
		case OpGtF:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].F > stack[sp].F)
		case OpGeF:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].F >= stack[sp].F)

		case OpEqS:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].S == stack[sp].S)
			stack[sp-1].S = ""
		case OpNeS:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].S != stack[sp].S)
			stack[sp-1].S = ""
		case OpLtS:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].S < stack[sp].S)
			stack[sp-1].S = ""
		case OpLeS:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].S <= stack[sp].S)
			stack[sp-1].S = ""
		case OpGtS:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].S > stack[sp].S)
			stack[sp-1].S = ""
		case OpGeS:
			sp--
			stack[sp-1].I = b2i(stack[sp-1].S >= stack[sp].S)
			stack[sp-1].S = ""

		case OpNotB:
			stack[sp-1].I = 1 - stack[sp-1].I

		case OpJump:
			pc = in.A
		case OpJumpIfFalse:
			sp--
			if stack[sp].I == 0 {
				pc = in.A
			}
		case OpJumpIfTrue:
			sp--
			if stack[sp].I != 0 {
				pc = in.A
			}

		case OpCall:
			argc := int(in.B)
			sp -= argc
			if cap(m.args) < argc {
				m.args = make([]Val, argc)
			}
			args := m.args[:argc]
			copy(args, stack[sp:sp+argc])
			stack[sp] = p.funcs[in.A](args)
			sp++

		case OpEmit:
			if si == len(p.Segs)-1 {
				out := tmpl
				if seg.Fresh {
					out = tuple.Tuple{Ref: m.storeRef(p, slots[seg.OutBase:seg.OutBase+seg.NOut], seg.Out)}
				}
				emit.Emit(out)
			} else {
				next := &p.Segs[si+1]
				copy(slots[next.InBase:next.InBase+next.NIn], slots[seg.OutBase:seg.OutBase+seg.NOut])
				out := tmpl
				if seg.Fresh {
					// An interior Fresh emit only builds its payload
					// when some final forwarding emit can expose it
					// (needStore, computed by Verify); otherwise the
					// template it would build is dead — a later Fresh
					// segment replaces it before the program ends.
					if p.needStore == nil || p.needStore[si] {
						out = tuple.Tuple{Ref: m.storeRef(p, slots[seg.OutBase:seg.OutBase+seg.NOut], seg.Out)}
					} else {
						out = tuple.Tuple{}
					}
				}
				m.runSeg(p, si+1, out, sp, emit)
				m.seg = si
			}

		case OpDrop:
			return

		default:
			// The list opcodes run out of line (list.go), so this loop —
			// which every scalar program pays for — carries none of their
			// code.
			sp = m.listOp(p, si, pc-1, in, sp)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
