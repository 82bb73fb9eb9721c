package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// The wire format is deliberately hand-rolled over encoding/binary
// primitives rather than reflective struct encoding: every field is
// written explicitly in a fixed order with fixed widths, so two
// processes (or two builds) that construct equal programs produce
// byte-identical encodings — the property the content hash turns into
// a placement key. Little-endian throughout.

// magic identifies the format; bump the trailing digit on any layout
// change so stale bytes fail loudly instead of mis-decoding.
var magic = [4]byte{'T', 'V', 'M', '1'}

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}
func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}
func (e *encoder) i32(v int32) { e.u32(uint32(v)) }
func (e *encoder) i64(v int64) { e.u64(uint64(v)) }
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) layout(l Layout) {
	e.u32(uint32(len(l.Fields)))
	for _, f := range l.Fields {
		e.str(f.Name)
		e.u8(uint8(f.Kind))
	}
}

// Encode serializes the program's portable fields (everything except
// the process-local codec and builtin bindings).
func (p *Program) Encode() []byte {
	e := &encoder{buf: make([]byte, 0, 64+8*len(p.Code))}
	e.buf = append(e.buf, magic[:]...)
	e.layout(p.In)
	e.i32(p.NumSlots)
	e.i32(p.MaxStack)
	e.u32(uint32(len(p.Segs)))
	for _, s := range p.Segs {
		e.i32(s.Start)
		e.i32(s.End)
		e.i32(s.InBase)
		e.i32(s.NIn)
		e.i32(s.OutBase)
		e.i32(s.NOut)
		if s.Fresh {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.str(s.Name)
		e.layout(s.Out)
	}
	e.u32(uint32(len(p.Code)))
	for _, in := range p.Code {
		e.u16(uint16(in.Op))
		e.i32(in.A)
		e.i32(in.B)
	}
	e.u32(uint32(len(p.Ints)))
	for _, v := range p.Ints {
		e.i64(v)
	}
	e.u32(uint32(len(p.Floats)))
	for _, v := range p.Floats {
		e.u64(math.Float64bits(v))
	}
	e.u32(uint32(len(p.Strs)))
	for _, v := range p.Strs {
		e.str(v)
	}
	e.u32(uint32(len(p.Builtins)))
	for _, v := range p.Builtins {
		e.str(v)
	}
	return e.buf
}

// Hash returns the SHA-256 of the encoding — the content address two
// processes agree on for equal logic.
func (p *Program) Hash() [32]byte { return sha256.Sum256(p.Encode()) }

// HashString returns the hex content hash.
func (p *Program) HashString() string {
	h := p.Hash()
	return hex.EncodeToString(h[:])
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("vm: decode at %d: %s", d.off, msg)
	}
}
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) i64() int64 { return int64(d.u64()) }

// count reads a length prefix and sanity-bounds it against the bytes
// that remain, so a corrupt length cannot drive a huge allocation.
func (d *decoder) count(elemSize int) int {
	n := int(d.u32())
	if d.err == nil && n*max(elemSize, 1) > len(d.buf)-d.off {
		d.fail("length prefix exceeds input")
		return 0
	}
	return n
}
func (d *decoder) str() string {
	n := d.count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
func (d *decoder) layout() Layout {
	n := d.count(5)
	if n == 0 {
		return Layout{}
	}
	fs := make([]Field, n)
	for i := range fs {
		fs[i].Name = d.str()
		fs[i].Kind = Kind(d.u8())
	}
	return Layout{Fields: fs}
}

// Decode deserializes a program and verifies it. The returned program
// is unbound: call Bind before running it.
func Decode(buf []byte) (*Program, error) {
	d := &decoder{buf: buf}
	m := d.take(4)
	if d.err == nil && string(m) != string(magic[:]) {
		return nil, fmt.Errorf("vm: bad magic")
	}
	p := &Program{}
	p.In = d.layout()
	p.NumSlots = d.i32()
	p.MaxStack = d.i32()
	if n := d.count(29); n > 0 {
		p.Segs = make([]Seg, n)
		for i := range p.Segs {
			s := &p.Segs[i]
			s.Start = d.i32()
			s.End = d.i32()
			s.InBase = d.i32()
			s.NIn = d.i32()
			s.OutBase = d.i32()
			s.NOut = d.i32()
			s.Fresh = d.u8() != 0
			s.Name = d.str()
			s.Out = d.layout()
		}
	}
	if n := d.count(10); n > 0 {
		p.Code = make([]Instr, n)
		for i := range p.Code {
			p.Code[i] = Instr{Op: Op(d.u16()), A: d.i32(), B: d.i32()}
		}
	}
	if n := d.count(8); n > 0 {
		p.Ints = make([]int64, n)
		for i := range p.Ints {
			p.Ints[i] = d.i64()
		}
	}
	if n := d.count(8); n > 0 {
		p.Floats = make([]float64, n)
		for i := range p.Floats {
			p.Floats[i] = math.Float64frombits(d.u64())
		}
	}
	if n := d.count(4); n > 0 {
		p.Strs = make([]string, n)
		for i := range p.Strs {
			p.Strs[i] = d.str()
		}
	}
	if n := d.count(4); n > 0 {
		p.Builtins = make([]string, n)
		for i := range p.Builtins {
			p.Builtins[i] = d.str()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("vm: %d trailing bytes", len(buf)-d.off)
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// Verify validates a program: segment geometry, slot and constant-pool
// operand ranges, jump targets confined to the owning segment, scalar
// layouts, and — by abstract interpretation of every segment
// (verify.go) — operand-stack discipline and list typing. Compile and
// Decode both run it, so an invalid program is rejected before it can
// index out of bounds mid-tuple: a verified, bound program can fault
// only with *Error or a builtin's own panic.
func (p *Program) Verify() error {
	if len(p.Segs) == 0 {
		return fmt.Errorf("vm: program has no segments")
	}
	if p.NumSlots < 0 || p.MaxStack < 0 || p.NumSlots > maxGeometry || p.MaxStack > maxGeometry {
		return fmt.Errorf("vm: geometry (%d slots, %d stack) outside 0..%d", p.NumSlots, p.MaxStack, maxGeometry)
	}
	if err := scalarLayout(p.In); err != nil {
		return fmt.Errorf("vm: program in layout: %w", err)
	}
	for i := range p.Segs {
		s := &p.Segs[i]
		if s.Start < 0 || s.End < s.Start || int(s.End) > len(p.Code) {
			return fmt.Errorf("vm: seg %d code range [%d,%d) outside 0..%d", i, s.Start, s.End, len(p.Code))
		}
		if i > 0 && s.Start != p.Segs[i-1].End {
			return fmt.Errorf("vm: seg %d not contiguous with predecessor", i)
		}
		if s.NIn < 0 || s.NOut < 0 || s.InBase < 0 || s.OutBase < 0 ||
			s.InBase+s.NIn > p.NumSlots || s.OutBase+s.NOut > p.NumSlots {
			return fmt.Errorf("vm: seg %d windows outside %d slots", i, p.NumSlots)
		}
		if int(s.NOut) != len(s.Out.Fields) {
			return fmt.Errorf("vm: seg %d out window %d != layout %d", i, s.NOut, len(s.Out.Fields))
		}
		if err := scalarLayout(s.Out); err != nil {
			return fmt.Errorf("vm: seg %d out layout: %w", i, err)
		}
		if i+1 < len(p.Segs) && s.NOut != p.Segs[i+1].NIn {
			return fmt.Errorf("vm: seg %d emits %d attrs, seg %d expects %d", i, s.NOut, i+1, p.Segs[i+1].NIn)
		}
		for pc := s.Start; pc < s.End; pc++ {
			in := p.Code[pc]
			bad := func(msg string) error {
				return fmt.Errorf("vm: seg %d pc %d (%s): %s", i, pc, in.Op, msg)
			}
			switch in.Op {
			case OpConstI:
				if in.A < 0 || int(in.A) >= len(p.Ints) {
					return bad("int constant out of range")
				}
			case OpConstF:
				if in.A < 0 || int(in.A) >= len(p.Floats) {
					return bad("float constant out of range")
				}
			case OpConstS:
				if in.A < 0 || int(in.A) >= len(p.Strs) {
					return bad("string constant out of range")
				}
			case OpLoad, OpStore:
				if in.A < 0 || in.A >= p.NumSlots {
					return bad("slot out of range")
				}
			case OpJump, OpJumpIfFalse, OpJumpIfTrue:
				if in.A < s.Start || in.A > s.End {
					return bad("jump target outside segment")
				}
			case OpCall, OpCallL:
				if in.A < 0 || int(in.A) >= len(p.Builtins) {
					return bad("builtin out of range")
				}
				sg, ok := sigOf(p.Builtins[in.A])
				if !ok || int(in.B) != len(sg.args) {
					return bad("argument count does not match the builtin's signature")
				}
				if sg.list() != (in.Op == OpCallL) {
					return bad("wrong call opcode for the builtin's signature")
				}
			case OpMakeL:
				if in.A < 0 {
					return bad("negative element count")
				}
			default:
				if in.Op >= numOps {
					return bad("unknown opcode")
				}
			}
		}
	}
	if len(p.In.Fields) != int(p.Segs[0].NIn) {
		return fmt.Errorf("vm: program in layout %d != seg 0 window %d", len(p.In.Fields), p.Segs[0].NIn)
	}
	// Nested segments share one stack, each running above its caller's
	// live temporaries, so the depths the segments can reach must fit
	// MaxStack summed.
	var need int32
	for i := range p.Segs {
		d, err := p.verifyFlow(i)
		if err != nil {
			return err
		}
		need += d
	}
	if need > p.MaxStack {
		return fmt.Errorf("vm: stack %d below the %d the code can reach", p.MaxStack, need)
	}
	// A verified program also gets its store-liveness table: an interior
	// Fresh emit's payload rides the template tuple, and the template is
	// only ever exposed by a final *forwarding* emit — so if any later
	// segment is Fresh (it replaces the template before the end), the
	// Store is dead and the interpreter skips it. The final segment's
	// Fresh store is always live.
	p.needStore = make([]bool, len(p.Segs))
	fresh := false // a Fresh segment exists at index > si
	for si := len(p.Segs) - 1; si >= 0; si-- {
		p.needStore[si] = p.Segs[si].Fresh && !fresh
		if p.Segs[si].Fresh {
			fresh = true
		}
	}
	return nil
}
