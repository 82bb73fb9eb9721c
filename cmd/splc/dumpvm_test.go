package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streams/internal/spl"
)

var update = flag.Bool("update", false, "rewrite golden files")

// vmProgram exercises every operator kind -dump-vm distinguishes: a
// bytecode Filter and Custom, a Work program, a closure fall-back (the
// stateful Custom is rejected) and built-ins (Beacon, FileSink).
const vmProgram = `
composite Main {
  graph
    stream<int64 x> N = Beacon() { param iterations: 10; }
    stream<int64 x> E = Filter(N) { param filter: x % 2 == 0; }
    stream<int64 x> W = Work(E) { param cost: 4; }
    stream<int64 y, rstring tag> M = Custom(W) {
      logic onTuple W: {
        submit({ y = x * 3 + 1, tag = "m" }, M);
      }
    }
    stream<int64 n> C = Custom(M) {
      logic state: { mutable int64 seen = 0; }
      onTuple M: {
        seen = seen + 1;
        submit({ n = seen }, C);
      }
    }
    () as Out = FileSink(C) { param file: "/dev/null"; }
}
`

// dumpGolden compiles src, dumps its programs and holds the dump to
// testdata/<name>: program hashes are content-addressed and every pool
// index is deterministic, so the output is byte-stable. Regenerate with
// -update after intentional bytecode or compiler changes.
func dumpGolden(t *testing.T, src, name string) string {
	t.Helper()
	compiled, err := spl.Compile(src, spl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	dumpPrograms(&b, compiled.Graph)
	got := b.String()

	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("-dump-vm output drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	return got
}

// TestDumpVMGolden pins the -dump-vm disassembly of vmProgram.
func TestDumpVMGolden(t *testing.T) {
	got := dumpGolden(t, vmProgram, "dumpvm.golden")

	// Structural spot checks so a stale -update cannot hide regressions.
	for _, want := range []string{
		"closure (no program)",     // the stateful Custom falls back
		"builtin (no logic)",       // Beacon and FileSink have nothing to compile
		"seg 0 \"Main/E\" forward", // the filter forwards its input tuple
		"seg 0 \"Main/M\" fresh",   // the custom emits a fresh tuple
		"spin.work:ii/2",           // the work program calls the burn builtin
		"(int y, str tag)",         // out layout in attribute order
		"jump.false",               // a false predicate jumps past the emit
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("-dump-vm output missing %q:\n%s", want, got)
		}
	}
}

// TestDumpVMLoginFailuresGolden pins the bytecode of the paper's own
// Figure 1 program (examples/loginfailures): all of its logic compiles,
// so the dump has list opcodes and not one closure fall-back line.
func TestDumpVMLoginFailuresGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "loginfailures", "loginfailures.spl"))
	if err != nil {
		t.Fatal(err)
	}
	got := dumpGolden(t, string(src), "dumpvm_loginfailures.golden")
	if strings.Contains(got, "closure (no program)") {
		t.Fatalf("LoginFailures has a closure fall-back:\n%s", got)
	}
	for _, want := range []string{
		"call.l     tokenize:ssb>l/3", "index.l", "slice.l", "call.l     flatten:l/1",
		"call.l     parseMsg:s>l/1", "call.l     size:l/1", "call       findFirst:ssi/3",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("LoginFailures dump missing %q:\n%s", want, got)
		}
	}
}

// TestSplcDumpVM exercises the flag end to end through the CLI.
func TestSplcDumpVM(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.spl")
	if err := os.WriteFile(src, []byte(vmProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runSplc(t, "-dump-vm", src)
	if err != nil {
		t.Fatalf("splc -dump-vm: %v\n%s", err, out)
	}
	if !strings.Contains(out, "program ") || !strings.Contains(out, "closure (no program)") {
		t.Fatalf("-dump-vm output malformed:\n%s", out)
	}
}
