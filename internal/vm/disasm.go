package vm

import (
	"fmt"
	"strings"
)

// Disasm renders a program as human-readable assembly: header (hash,
// geometry, input layout), then each segment's instructions with
// constant-pool values and builtin names resolved inline. splc
// -dump-vm prints this per operator, and golden tests pin it.
func Disasm(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.HashString())
	fmt.Fprintf(&b, "  slots %d, stack %d, in %s\n", p.NumSlots, p.MaxStack, layoutString(p.In))
	for si := range p.Segs {
		s := &p.Segs[si]
		mode := "forward"
		if s.Fresh {
			mode = "fresh"
		}
		fmt.Fprintf(&b, "seg %d %q %s in=[%d:%d) out=[%d:%d) %s\n",
			si, s.Name, mode, s.InBase, s.InBase+s.NIn, s.OutBase, s.OutBase+s.NOut, layoutString(s.Out))
		for pc := s.Start; pc < s.End; pc++ {
			in := p.Code[pc]
			fmt.Fprintf(&b, "  %4d  %-10s", pc, in.Op.String())
			switch in.Op {
			case OpConstI:
				fmt.Fprintf(&b, " %d", p.Ints[in.A])
			case OpConstF:
				fmt.Fprintf(&b, " %g", p.Floats[in.A])
			case OpConstS:
				fmt.Fprintf(&b, " %q", p.Strs[in.A])
			case OpLoad, OpStore:
				fmt.Fprintf(&b, " s%d", in.A)
			case OpJump, OpJumpIfFalse, OpJumpIfTrue:
				fmt.Fprintf(&b, " @%d", in.A)
			case OpCall, OpCallL:
				fmt.Fprintf(&b, " %s/%d", p.Builtins[in.A], in.B)
			case OpMakeL:
				fmt.Fprintf(&b, " %d", in.A)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func layoutString(l Layout) string {
	if len(l.Fields) == 0 {
		return "()"
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range l.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Kind, f.Name)
	}
	b.WriteByte(')')
	return b.String()
}
