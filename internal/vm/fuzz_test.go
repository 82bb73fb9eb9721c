package vm_test

import (
	"os"
	"strings"
	"testing"

	"streams/internal/spl" // registers the SPL builtins (and, through ops, spin.work) the seeds call
	"streams/internal/tuple"
	"streams/internal/vm"
)

// FuzzDecodeVerifyRun is the TVM1 trust boundary: bytes from anywhere
// go through Decode (which verifies); whatever comes out binds and runs
// on a zero tuple, and may only return or fault the way an operator may
// — *vm.Error from the machine, *spl.RuntimeError from a builtin. A Go
// runtime panic (index out of range, nil call) is a verifier hole.

// fuzzChain is a scalar pipeline in the shapes LoginFailures lacks:
// arithmetic, a conditional, a loop-free multi-emit and a Work burn.
const fuzzChain = `
composite Main {
  graph
    stream<int64 x, rstring s> N = Beacon() { param iterations: 1; }
    stream<int64 x, rstring s> E = Filter(N) { param filter: x % 2 == 0 || length(s) > 3; }
    stream<int64 y, rstring tag> M = Custom(E) {
      logic onTuple E: {
        submit({ y = x * 3 + 1, tag = x > 2 ? upper(s) : substring(s, 1, 2) }, M);
        submit({ y = toInt(s) / x, tag = toString(x) + s }, M);
      }
    }
    () as Out = FileSink(M) { param file: "/dev/null"; }
}
`

// seedPrograms compiles the golden SPL programs and returns every
// operator program plus each adjacent pair fused.
func seedPrograms(f *testing.F) []*vm.Program {
	logins, err := os.ReadFile("../../examples/loginfailures/loginfailures.spl")
	if err != nil {
		f.Fatal(err)
	}
	var progs []*vm.Program
	for _, src := range []string{string(logins), fuzzChain} {
		c, err := spl.Compile(src, spl.Options{})
		if err != nil {
			f.Fatal(err)
		}
		seen := map[string]bool{}
		var chain []*vm.Program
		for _, n := range c.Graph.Nodes {
			pr, ok := n.Op.(vm.Programmed)
			if !ok || pr.VMProgram() == nil || seen[n.Op.Name()] {
				continue
			}
			seen[n.Op.Name()] = true
			chain = append(chain, pr.VMProgram())
		}
		progs = append(progs, chain...)
		for i := 0; i+1 < len(chain); i++ {
			if fused, err := vm.Fuse(chain[i : i+2]); err == nil {
				progs = append(progs, fused)
			}
		}
	}
	return progs
}

// bounded reports whether running p is cheap enough to do per fuzz
// input: Verify proves memory safety, not termination or size, so
// programs that can loop, burn CPU by design, multiply emissions across
// segments or keep doubling a string are decoded and verified only.
func bounded(p *vm.Program) bool {
	if p.NumSlots+p.MaxStack > 4096 {
		return false
	}
	for _, name := range p.Builtins {
		if strings.HasPrefix(name, "spin") {
			return false
		}
	}
	grow, runs := 0, 1
	for si := range p.Segs {
		emits := 0
		for pc := p.Segs[si].Start; pc < p.Segs[si].End; pc++ {
			switch in := p.Code[pc]; in.Op {
			case vm.OpJump, vm.OpJumpIfFalse, vm.OpJumpIfTrue:
				if in.A <= pc {
					return false
				}
			case vm.OpEmit:
				emits++
			case vm.OpCatS, vm.OpCall, vm.OpCallL, vm.OpMakeL:
				grow++
			}
		}
		if runs *= max(emits, 1); runs > 1<<10 {
			return false
		}
	}
	return grow <= 12
}

func FuzzDecodeVerifyRun(f *testing.F) {
	for _, p := range seedPrograms(f) {
		f.Add(p.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := vm.Decode(data)
		if err != nil || !bounded(p) || p.Bind(vm.Identity) != nil {
			return
		}
		defer func() {
			switch r := recover().(type) {
			case nil, *vm.Error, *spl.RuntimeError:
			default:
				t.Fatalf("verified program panicked the machine: %v\n%s", r, vm.Disasm(p))
			}
		}()
		var m vm.Machine
		m.Run(p, tuple.Tuple{}, vm.EmitFunc(func(tuple.Tuple) {}))
	})
}
