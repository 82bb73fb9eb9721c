package vm

import "fmt"

// Fuse concatenates the programs of a linear operator run into one
// superinstruction program: segment i's emit feeds segment i+1's
// input window directly, with no Process call, Submitter hop or batch
// flush in between. Each input program's code, constant pools and
// slot region are relocated by pure index shifts; builtin names are
// deduplicated so the fused name table (and hence the content hash)
// is canonical.
//
// Every program must already be single-codec compatible: adjacent
// out/in layouts must agree in names and kinds, and all programs must
// be bound to the same codec (the fused program inherits it). Fuse
// verifies the result before returning it.
func Fuse(progs []*Program) (*Program, error) {
	if len(progs) < 2 {
		return nil, fmt.Errorf("vm: fuse needs at least 2 programs, got %d", len(progs))
	}
	f := &Program{In: progs[0].In, codec: progs[0].codec}
	nCode := 0
	for _, p := range progs {
		nCode += len(p.Code)
	}
	f.Code = make([]Instr, 0, nCode)
	bidx := map[string]int32{}
	for pi, p := range progs {
		if p.codec == nil {
			return nil, fmt.Errorf("vm: fuse: program %d is unbound", pi)
		}
		if pi > 0 {
			prev := progs[pi-1]
			if !prev.Segs[len(prev.Segs)-1].Out.Equal(p.In) {
				return nil, fmt.Errorf("vm: fuse: %s emits %v, %s expects %v",
					prev.Segs[len(prev.Segs)-1].Name, prev.Segs[len(prev.Segs)-1].Out.Fields,
					p.Segs[0].Name, p.In.Fields)
			}
			if p.codec != f.codec {
				return nil, fmt.Errorf("vm: fuse: mixed codecs")
			}
		}
		codeOff := int32(len(f.Code))
		slotOff := f.NumSlots
		intOff := int32(len(f.Ints))
		floatOff := int32(len(f.Floats))
		strOff := int32(len(f.Strs))
		bmap := make([]int32, len(p.Builtins))
		for i, name := range p.Builtins {
			j, ok := bidx[name]
			if !ok {
				j = int32(len(f.Builtins))
				f.Builtins = append(f.Builtins, name)
				f.funcs = append(f.funcs, p.funcs[i])
				f.lfuncs = append(f.lfuncs, p.lfuncs[i])
				bidx[name] = j
			}
			bmap[i] = j
		}
		for _, in := range p.Code {
			switch in.Op {
			case OpConstI:
				in.A += intOff
			case OpConstF:
				in.A += floatOff
			case OpConstS:
				in.A += strOff
			case OpLoad, OpStore:
				in.A += slotOff
			case OpJump, OpJumpIfFalse, OpJumpIfTrue:
				in.A += codeOff
			case OpCall, OpCallL:
				in.A = bmap[in.A]
			}
			f.Code = append(f.Code, in)
		}
		for _, s := range p.Segs {
			s.Start += codeOff
			s.End += codeOff
			s.InBase += slotOff
			s.OutBase += slotOff
			f.Segs = append(f.Segs, s)
		}
		f.NumSlots += p.NumSlots
		// Stacks sum rather than max: an inner emit runs the next
		// segment above the emitter's live temporaries.
		f.MaxStack += p.MaxStack
		// The fused cutoff is the most conservative of the inputs'.
		if p.vecMin > f.vecMin {
			f.vecMin = p.vecMin
		}
		f.Ints = append(f.Ints, p.Ints...)
		f.Floats = append(f.Floats, p.Floats...)
		f.Strs = append(f.Strs, p.Strs...)
	}
	if err := f.Verify(); err != nil {
		return nil, err
	}
	return f, nil
}
