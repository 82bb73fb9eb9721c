package spl

import (
	"streams/internal/tuple"
	"streams/internal/vm"
)

// This file is the value-model bridge between the SPL runtime (boxed
// Value / Tup maps) and the VM (unboxed Val lanes). Two pieces:
//
//   - the builtin registrations: every typed implementation in the
//     builtins table (builtins.go) is registered with the VM under its
//     signature-mangled name — the very function the closure
//     interpreter reaches through builtin.call, so the two paths agree
//     on every edge case (substring bounds panics, toInt leniency,
//     spin's burn) by construction rather than by re-implementation;
//   - tupCodec, which copies Tup payloads into slot windows and back.

func init() {
	for name, b := range builtins {
		for i := range b.impls {
			im := &b.impls[i]
			mangled := im.mangled(name)
			if im.lfn != nil {
				vm.RegisterListBuiltin(mangled, im.lfn)
				continue
			}
			vm.RegisterBuiltin(mangled, im.fn)
			// Every scalar builtin is a pure function of its arguments
			// except spin, whose deliberate CPU burn is a side effect
			// that is harmless to repeat — both classes are
			// vectorizable and replay-safe. List builtins declare no
			// effect: programs that touch lists never vectorize.
			eff := vm.EffectPure
			if name == "spin" {
				eff = vm.EffectReplay
			}
			vm.RegisterBuiltinInfo(mangled, eff, im.ret)
		}
	}
}

// tupCodec translates Tup payloads at program boundaries. Load runs
// once per input tuple; Store once per fresh emit. Inside a fused
// chain neither runs at interior hops — values stay in slots.
type tupCodec struct{}

func (tupCodec) Load(t *tuple.Tuple, in vm.Layout, slots []vm.Val) {
	if r, ok := t.Ref.(*Rec); ok {
		r.load(in, slots)
		return
	}
	tv := t.Ref.(Tup)
	for i, f := range in.Fields {
		switch f.Kind {
		case vm.KInt:
			slots[i] = vm.Val{I: tv[f.Name].(int64)}
		case vm.KFloat:
			slots[i] = vm.Val{F: tv[f.Name].(float64)}
		case vm.KStr:
			slots[i] = vm.Val{S: tv[f.Name].(string)}
		default:
			slots[i] = vm.Val{I: b2iVal(tv[f.Name].(bool))}
		}
	}
}

// NewBatchStore implements vm.BatchStorer: fresh emits pack into
// columnar frames (frame.go) instead of allocating a Tup per tuple.
func (tupCodec) NewBatchStore() vm.BatchStore { return &frameStore{} }

// refTup views a tuple payload as a Tup for closure-path consumers:
// Tup payloads pass through, Rec payloads (built by the VM emit path)
// materialize. Anything else panics with the same type-assertion error
// the closure path always raised.
func refTup(ref any) Tup {
	if r, ok := ref.(*Rec); ok {
		return r.Tup()
	}
	return ref.(Tup)
}

func (tupCodec) Store(slots []vm.Val, out vm.Layout) any {
	tv := make(Tup, len(out.Fields))
	for i, f := range out.Fields {
		switch f.Kind {
		case vm.KInt:
			tv[f.Name] = slots[i].I
		case vm.KFloat:
			tv[f.Name] = slots[i].F
		case vm.KStr:
			tv[f.Name] = slots[i].S
		default:
			tv[f.Name] = slots[i].I != 0
		}
	}
	return tv
}

func b2iVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// bindVM binds p to the Tup codec, returning nil (closure fallback)
// when binding fails — e.g. a builtin registration is missing. Bound
// programs also get the vectorizability pass (vec_vm.go) tuning their
// batch-size cutoff for the scheduler's vectorized commit point.
func bindVM(p *vm.Program) *vm.Program {
	if p == nil {
		return nil
	}
	if err := p.Bind(tupCodec{}); err != nil {
		return nil
	}
	vecTune(p)
	return p
}
