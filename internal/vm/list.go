package vm

import "fmt"

// list.go is the list-of-string value. A list is not a fourth lane in
// Val — that would widen every stack cell and slot of every program,
// including the arithmetic ones that never see a list — but a span
// packed into the int lane: the offset of the list's first element in
// the running Machine's arena in the high 32 bits, its length in the
// low 32. The zero Val is the empty list.
//
// The arena is append-only during a Run and truncated by the next one,
// so a span is only meaningful to the Run that built it. Verify makes
// that a static property: it tracks which stack cells and slots hold
// lists, every segment starts with none, and list opcodes accept only
// cells it has proven to hold a list — so no program can read a span
// left behind by an earlier Run, forge one from an integer, or let one
// escape through an out window into a tuple.

const (
	spanShift = 32
	spanLen   = 1<<spanShift - 1
)

func span(off, n int) Val { return Val{I: int64(off)<<spanShift | int64(n)} }

// Arena holds the elements of the lists one Run builds. Builtins that
// take or return lists (ListFunc) read and extend it through the
// methods below; the zero Arena is ready to use, which is how the SPL
// closure evaluator calls the same builtins outside a machine.
type Arena struct {
	strs []string
}

// Len returns the element count of list l.
func (a *Arena) Len(l Val) int { return int(l.I & spanLen) }

// Strs returns list l's elements. The slice aliases the arena: it is
// valid until the arena's owner next runs or resets, and must not be
// modified.
func (a *Arena) Strs(l Val) []string {
	off := int(l.I >> spanShift)
	return a.strs[off : off+int(l.I&spanLen)]
}

// Mark starts a new list: everything appended from here on belongs to
// the list the matching List call returns.
func (a *Arena) Mark() int { return len(a.strs) }

// Append adds one element to the list under construction.
func (a *Arena) Append(s string) { a.strs = append(a.strs, s) }

// List closes the list started at mark. Elements are typically
// substrings of an input value, so building a list allocates nothing
// once the arena has grown to the operator's working size.
func (a *Arena) List(mark int) Val { return span(mark, len(a.strs)-mark) }

// ListFunc is a bound list builtin: like BuiltinFunc, plus the arena
// its list arguments index and its list result is appended to. A list
// result must be built with Mark/Append/List on a, or be (a sub-span
// of) a list argument.
type ListFunc func(a *Arena, args []Val) Val

// indexFault is OpIndexL's out-of-range panic, worded like the closure
// evaluator's.
func indexFault(si int, pc int32, i int64, n int64) *Error {
	return &Error{Seg: si, PC: pc, Msg: fmt.Sprintf("index %d out of range for list of %d", i, n)}
}

// listOp executes one list opcode at pc of segment si and returns the
// new stack top; any other opcode is invalid. runSeg reaches it through
// its default arm.
func (m *Machine) listOp(p *Program, si int, pc int32, in Instr, sp int) int {
	stack := m.stack
	switch in.Op {
	case OpIndexL:
		sp--
		i, l := stack[sp].I, stack[sp-1].I
		if uint64(i) >= uint64(l&spanLen) {
			panic(indexFault(si, pc, i, l&spanLen))
		}
		stack[sp-1] = Val{S: m.arena.strs[l>>spanShift+i]}
	case OpSliceL:
		sp -= 2
		l := stack[sp-1].I
		n := l & spanLen
		lo := min(max(stack[sp].I, 0), n)
		hi := min(max(stack[sp+1].I, lo), n)
		stack[sp-1].I = (l>>spanShift+lo)<<spanShift | (hi - lo)
	case OpMakeL:
		n := int(in.A)
		sp -= n
		mark := m.arena.Mark()
		for k := sp; k < sp+n; k++ {
			m.arena.Append(stack[k].S)
			stack[k].S = ""
		}
		stack[sp] = m.arena.List(mark)
		sp++
	case OpCallL:
		argc := int(in.B)
		sp -= argc
		if cap(m.args) < argc {
			m.args = make([]Val, argc)
		}
		args := m.args[:argc]
		copy(args, stack[sp:sp+argc])
		stack[sp] = p.lfuncs[in.A](&m.arena, args)
		sp++
	default:
		panic(&Error{Seg: si, PC: pc, Msg: "invalid opcode " + in.Op.String()})
	}
	return sp
}
