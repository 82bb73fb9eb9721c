package vm

import (
	"fmt"
	"slices"
)

// verify.go is the flow half of Program.Verify: an abstract
// interpretation of each segment that proves the operand stack never
// underflows, bounds how deep it gets, and tracks which stack cells and
// slots hold a list. The list lattice has two points — "certainly a
// list built by this activation of the segment" and "anything else" —
// which is all memory safety needs: a span misread as an int is just a
// number, an int misread as a span indexes the arena out of bounds.

// maxGeometry bounds NumSlots and MaxStack, which size allocations no
// byte of the encoding backs.
const maxGeometry = 1 << 16

// scalarLayout rejects list (and unknown) kinds in a tuple layout:
// lists are operator-local and never reach a codec, frame or wire.
func scalarLayout(l Layout) error {
	for _, f := range l.Fields {
		if f.Kind > KBool {
			return fmt.Errorf("attribute %s has non-scalar kind %s", f.Name, f.Kind)
		}
	}
	return nil
}

// flowState is the abstract state before one instruction: the stack
// depth and the sorted locations holding lists — slot s is location s,
// stack cell d is location NumSlots+d. Lists are rare, so the set stays
// a handful of entries however many slots the program has. A lists
// slice is never modified once made — states along a path share it, and
// an instruction that changes the set builds a new one — so the common
// instruction, which leaves the set alone, costs no allocation.
type flowState struct {
	seen  bool
	depth int32
	lists []int32
}

// flow interprets one segment.
type flow struct {
	p        *Program
	si       int
	pc       int32
	st       flowState // state being pushed through the instruction at pc
	maxDepth int32
}

func (f *flow) errf(format string, args ...any) error {
	return fmt.Errorf("vm: seg %d pc %d (%s): %s", f.si, f.pc, f.p.Code[f.pc].Op, fmt.Sprintf(format, args...))
}

func (f *flow) pop() (list bool, err error) {
	if f.st.depth == 0 {
		return false, f.errf("stack underflow")
	}
	f.st.depth--
	if n := len(f.st.lists); n > 0 && f.st.lists[n-1] == f.p.NumSlots+f.st.depth {
		f.st.lists = f.st.lists[:n-1]
		return true, nil
	}
	return false, nil
}

// popN pops n cells of any kind.
func (f *flow) popN(n int32) error {
	for ; n > 0; n-- {
		if _, err := f.pop(); err != nil {
			return err
		}
	}
	return nil
}

// popList pops a cell that must hold a list.
func (f *flow) popList() error {
	list, err := f.pop()
	if err == nil && !list {
		err = f.errf("operand is not a list")
	}
	return err
}

func (f *flow) push(list bool) {
	if list {
		// The new top cell is the highest location there is.
		f.st.lists = append(slices.Clip(f.st.lists), f.p.NumSlots+f.st.depth)
	}
	f.st.depth++
	f.maxDepth = max(f.maxDepth, f.st.depth)
}

func (f *flow) setSlot(slot int32, list bool) {
	i, found := slices.BinarySearch(f.st.lists, slot)
	switch {
	case list && !found:
		f.st.lists = slices.Insert(slices.Clip(f.st.lists), i, slot)
	case !list && found:
		f.st.lists = slices.Delete(slices.Clone(f.st.lists), i, i+1)
	}
}

// emit checks OpEmit: no list may be in the out window (it would reach
// a tuple) or on the stack, and none survives in a slot — a list is a
// temporary of the code between two emits, so everything the arena
// holds is dead at every emit boundary.
func (f *flow) emit() error {
	seg := &f.p.Segs[f.si]
	for _, loc := range f.st.lists {
		if loc >= f.p.NumSlots {
			return f.errf("list on the stack across an emit")
		}
		if loc >= seg.OutBase && loc < seg.OutBase+seg.NOut {
			return f.errf("list in out-window slot %d", loc)
		}
	}
	f.st.lists = nil
	return nil
}

// step pushes f.st through the instruction at f.pc and returns where
// control can go next (a target of seg.End means return).
func (f *flow) step() (next [2]int32, n int, err error) {
	in := f.p.Code[f.pc]
	fall := [2]int32{f.pc + 1}
	switch in.Op {
	case OpNop:
	case OpConstI, OpConstF, OpConstS, OpLoadSeq:
		f.push(false)
	case OpLoad:
		_, list := slices.BinarySearch(f.st.lists, in.A)
		f.push(list)
	case OpStore:
		list, err := f.pop()
		if err != nil {
			return next, 0, err
		}
		f.setSlot(in.A, list)
	case OpPop:
		err = f.popN(1)
	case OpNegI, OpNegF, OpNotB:
		err = f.popN(1)
		f.push(false)
	case OpJump:
		return [2]int32{in.A}, 1, nil
	case OpJumpIfFalse, OpJumpIfTrue:
		return [2]int32{f.pc + 1, in.A}, 2, f.popN(1)
	case OpCall:
		err = f.popN(in.B)
		f.push(false)
	case OpCallL:
		sg, _ := sigOf(f.p.Builtins[in.A])
		for k := len(sg.args) - 1; k >= 0 && err == nil; k-- {
			if sg.args[k] == 'l' {
				err = f.popList()
			} else {
				err = f.popN(1)
			}
		}
		f.push(sg.retList)
	case OpEmit:
		err = f.emit()
	case OpDrop:
		return next, 0, nil
	case OpIndexL:
		if err = f.popN(1); err == nil {
			err = f.popList()
		}
		f.push(false)
	case OpSliceL:
		if err = f.popN(2); err == nil {
			err = f.popList()
		}
		f.push(true)
	case OpMakeL:
		err = f.popN(in.A)
		f.push(true)
	default: // the two-operand arithmetic, concatenation and comparison ops
		err = f.popN(2)
		f.push(false)
	}
	return fall, 1, err
}

// verifyFlow interprets segment si to a fixed point and returns the
// deepest the operand stack can get. Paths that meet must agree on the
// stack depth; a location holds a list after a join only when it does
// on every path in.
func (p *Program) verifyFlow(si int) (maxDepth int32, err error) {
	seg := &p.Segs[si]
	states := make([]flowState, seg.End-seg.Start)
	if len(states) == 0 {
		return 0, nil
	}
	f := &flow{p: p, si: si}
	states[0].seen = true
	work := []int32{seg.Start}
	for len(work) > 0 {
		f.pc = work[len(work)-1]
		work = work[:len(work)-1]
		at := &states[f.pc-seg.Start]
		f.st = flowState{depth: at.depth, lists: at.lists}
		next, n, err := f.step()
		if err != nil {
			return 0, err
		}
		for _, to := range next[:n] {
			if to == seg.End {
				continue
			}
			dst := &states[to-seg.Start]
			switch {
			case !dst.seen:
				*dst = flowState{seen: true, depth: f.st.depth, lists: f.st.lists}
			case dst.depth != f.st.depth:
				return 0, f.errf("stack depth %d meets %d at pc %d", f.st.depth, dst.depth, to)
			default:
				var kept []int32
				for _, loc := range dst.lists {
					if _, ok := slices.BinarySearch(f.st.lists, loc); ok {
						kept = append(kept, loc)
					}
				}
				if len(kept) == len(dst.lists) {
					continue
				}
				dst.lists = kept
			}
			work = append(work, to)
		}
	}
	return f.maxDepth, nil
}
