package spl

// frame.go is the allocation-free payload store behind the VM's emit
// path. The closure runtime's payload is Tup — a map — which costs a
// map allocation plus per-field interface boxing on every fresh emit
// (the 3 allocs/op BENCH_vm.json used to show on the scalar VM path).
// A Frame amortizes that: one columnar arena per ~256 emitted rows,
// typed column slices (no boxing), and payload refs that are interior
// pointers into the frame's own Rec table — so the per-row cost of a
// fresh emit is a few column stores and zero allocations.
//
// Frames are write-once: the store appends rows and never mutates or
// reuses filled ones, so a Rec riding on an emitted tuple is immutable
// and safe to read from any thread, exactly like a Tup built fresh per
// tuple. When a frame fills, the store drops its reference and starts
// a new one; the old frame lives for as long as any of its Recs do and
// is collected with them.

import (
	"strconv"

	"streams/internal/vm"
)

// frameCap is the row capacity of one frame: large enough to amortize
// the frame's own allocations to well under one per row, small enough
// that a mostly-dead frame pinned by one long-lived Rec stays cheap.
const frameCap = 256

// frameLane is one column; exactly one of the slices is non-nil,
// chosen by the field's kind (bools share the int lane as 0/1).
type frameLane struct {
	i []int64
	f []float64
	s []string
}

// Frame is a columnar batch of emitted payloads.
type Frame struct {
	fields []vm.Field
	lanes  []frameLane
	recs   []Rec
	used   int
}

// Rec is one row of a Frame — the payload a VM fresh emit puts in
// tuple.Tuple.Ref. It satisfies the same read access the closure
// path's Tup does, via Get or a full Tup materialization.
type Rec struct {
	f   *Frame
	row int32
}

// Get returns the named attribute as a boxed Value (bool for KBool,
// like Tup), or nil when the attribute does not exist.
func (r *Rec) Get(name string) Value {
	f := r.f
	for i := range f.fields {
		if f.fields[i].Name == name {
			return r.col(i)
		}
	}
	return nil
}

// col boxes column i of the row per the field's kind.
func (r *Rec) col(i int) Value {
	fd := &r.f.fields[i]
	ln := &r.f.lanes[i]
	switch fd.Kind {
	case vm.KInt:
		return ln.i[r.row]
	case vm.KFloat:
		return ln.f[r.row]
	case vm.KStr:
		return ln.s[r.row]
	default:
		return ln.i[r.row] != 0
	}
}

// Tup materializes the row as a Tup for closure-path consumers
// (sinks, aggregates, dedup). This is the one place the map cost
// comes back — paid only at boundaries that need a map, never on the
// VM hot path.
func (r *Rec) Tup() Tup {
	f := r.f
	tv := make(Tup, len(f.fields))
	for i := range f.fields {
		tv[f.fields[i].Name] = r.col(i)
	}
	return tv
}

// appendField appends the named attribute as formatValue renders it,
// unboxed. Sinks ask for attributes in their schema's order, which is
// normally the frame's, so column i is tried before a by-name scan.
func (r *Rec) appendField(dst []byte, i int, name string) []byte {
	f := r.f
	if i >= len(f.fields) || f.fields[i].Name != name {
		for i = 0; i < len(f.fields) && f.fields[i].Name != name; i++ {
		}
		if i == len(f.fields) {
			return appendValue(dst, nil)
		}
	}
	ln := &f.lanes[i]
	switch f.fields[i].Kind {
	case vm.KInt:
		return strconv.AppendInt(dst, ln.i[r.row], 10)
	case vm.KFloat:
		return appendFloat(dst, ln.f[r.row])
	case vm.KStr:
		return append(dst, ln.s[r.row]...)
	default:
		return strconv.AppendBool(dst, ln.i[r.row] != 0)
	}
}

// load copies the row into a slot window per the requested layout —
// the Rec half of tupCodec.Load. The positional fast path covers the
// overwhelmingly common case of the producer's out layout flowing
// unchanged into the consumer's in layout; a name/kind mismatch falls
// back to a by-name scan and panics on a genuinely missing or
// retyped attribute, exactly as the Tup path's type assertion would.
func (r *Rec) load(in vm.Layout, slots []vm.Val) {
	f := r.f
	row := r.row
	for i := range in.Fields {
		fd := &in.Fields[i]
		j := i
		if j >= len(f.fields) || f.fields[j].Name != fd.Name {
			j = -1
			for k := range f.fields {
				if f.fields[k].Name == fd.Name {
					j = k
					break
				}
			}
			if j < 0 {
				panic("spl: rec payload missing attribute " + fd.Name)
			}
		}
		have := f.fields[j].Kind
		ln := &f.lanes[j]
		switch fd.Kind {
		case vm.KInt, vm.KBool:
			if have != vm.KInt && have != vm.KBool {
				panic("spl: rec attribute " + fd.Name + " is " + have.String() + ", want " + fd.Kind.String())
			}
			slots[i] = vm.Val{I: ln.i[row]}
		case vm.KFloat:
			if have != vm.KFloat {
				panic("spl: rec attribute " + fd.Name + " is " + have.String() + ", want float")
			}
			slots[i] = vm.Val{F: ln.f[row]}
		default:
			if have != vm.KStr {
				panic("spl: rec attribute " + fd.Name + " is " + have.String() + ", want str")
			}
			slots[i] = vm.Val{S: ln.s[row]}
		}
	}
}

// newFrame allocates a frame for one layout.
func newFrame(out vm.Layout) *Frame {
	f := &Frame{
		fields: out.Fields,
		lanes:  make([]frameLane, len(out.Fields)),
		recs:   make([]Rec, frameCap),
	}
	for i := range out.Fields {
		switch out.Fields[i].Kind {
		case vm.KFloat:
			f.lanes[i].f = make([]float64, frameCap)
		case vm.KStr:
			f.lanes[i].s = make([]string, frameCap)
		default:
			f.lanes[i].i = make([]int64, frameCap)
		}
	}
	return f
}

// frameStore is the vm.BatchStore a tupCodec hands each machine: a
// single-threaded appender that packs fresh emits into frames.
type frameStore struct {
	f *Frame
}

// Append implements vm.BatchStore.
func (s *frameStore) Append(vals []vm.Val, out vm.Layout) any {
	f := s.f
	if f == nil || f.used == frameCap || !layoutShared(f.fields, out.Fields) {
		f = newFrame(out)
		s.f = f
	}
	row := f.used
	f.used++
	for i := range f.fields {
		ln := &f.lanes[i]
		switch f.fields[i].Kind {
		case vm.KFloat:
			ln.f[row] = vals[i].F
		case vm.KStr:
			ln.s[row] = vals[i].S
		default:
			ln.i[row] = vals[i].I
		}
	}
	f.recs[row] = Rec{f: f, row: int32(row)}
	return &f.recs[row]
}

// layoutShared reports whether a frame built for fields can hold rows
// of out: the fast path is the identical backing array (layouts are
// per-program singletons), the slow path a full name/kind compare.
func layoutShared(fields, out []vm.Field) bool {
	if len(fields) != len(out) {
		return false
	}
	if len(out) == 0 || &fields[0] == &out[0] {
		return true
	}
	for i := range out {
		if fields[i] != out[i] {
			return false
		}
	}
	return true
}
