package spl

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"streams/internal/pe"
)

// memFile is an in-memory WriteCloser for FileSink capture.
type memFile struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
}

func (m *memFile) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

func (m *memFile) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *memFile) Lines() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := strings.TrimRight(m.buf.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// compileRun compiles src with captured file IO and runs it to drain
// under the given model, returning sink files by name.
func compileRun(t *testing.T, src string, model pe.Model, threads int, inputs map[string]string) map[string]*memFile {
	t.Helper()
	files := map[string]*memFile{}
	var mu sync.Mutex
	c, err := Compile(src, Options{
		ReaderFor: func(f string) (io.ReadCloser, error) {
			content, ok := inputs[f]
			if !ok {
				return nil, fmt.Errorf("no test input registered for %q", f)
			}
			return io.NopCloser(strings.NewReader(content)), nil
		},
		WriterFor: func(f string) (io.WriteCloser, error) {
			mu.Lock()
			defer mu.Unlock()
			mf := &memFile{}
			files[f] = mf
			return mf, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pe.New(c.Graph, pe.Config{Model: model, Threads: threads, MaxThreads: max(threads, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("compiled program did not drain")
	}
	return files
}

const beaconProgram = `
composite Main {
  graph
    stream<int64 i> Nums = Beacon() {
      param iterations: 1000;
    }
    stream<int64 i> Heavy = Work(Nums) {
      param cost: 10;
    }
    stream<int64 i> Evens = Filter(Heavy) {
      param filter: i % 2 == 0;
    }
    () as Out = FileSink(Evens) {
      param file: "out.txt";
    }
}
`

func TestCompileBeaconPipeline(t *testing.T) {
	for _, model := range []pe.Model{pe.Manual, pe.Dynamic} {
		files := compileRun(t, beaconProgram, model, 2, nil)
		lines := files["out.txt"].Lines()
		if len(lines) != 500 {
			t.Fatalf("%v: sink got %d lines, want 500", model, len(lines))
		}
		if lines[0] != "0" || lines[1] != "2" || lines[499] != "998" {
			t.Fatalf("%v: unexpected lines %v ...", model, lines[:3])
		}
	}
}

func TestCompileSinkCounting(t *testing.T) {
	c, err := Compile(beaconProgram, Options{
		WriterFor: func(string) (io.WriteCloser, error) { return &memFile{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sinks) != 1 || c.Sinks["Out"] == nil {
		t.Fatalf("Sinks = %v", c.Sinks)
	}
	if c.Sinks["Out"].File() != "out.txt" {
		t.Fatalf("sink file = %q", c.Sinks["Out"].File())
	}
	p, err := pe.New(c.Graph, pe.Config{Model: pe.Manual})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if got := c.Sinks["Out"].Count(); got != 500 {
		t.Fatalf("sink count = %d, want 500", got)
	}
	if err := c.Sinks["Out"].Err(); err != nil {
		t.Fatal(err)
	}
}

// syntheticLog builds /var/log/messages-style content with nFail sshd
// authentication failures interleaved with noise.
func syntheticLog(nFail int) string {
	var sb strings.Builder
	for i := 0; i < nFail; i++ {
		fmt.Fprintf(&sb, "Jun 10 03:03:%02d myhost cron[%d]: (root) CMD (run-parts)\n", i%60, i)
		fmt.Fprintf(&sb, "Jun 10 03:04:%02d myhost sshd[%d]: pam_unix(sshd:auth): authentication failure; logname= uid=0 euid=0 tty=ssh ruser= rhost=10.0.0.%d user=bad%d\n", i%60, 1000+i, i%256, i)
		fmt.Fprintf(&sb, "Jun 10 03:05:%02d myhost systemd[1]: Started session\n", i%60)
		fmt.Fprintf(&sb, "Jun 10 03:06:%02d myhost sshd[%d]: Accepted password for gooduser\n", i%60, 2000+i)
	}
	return sb.String()
}

func TestCompileFig1EndToEnd(t *testing.T) {
	const nFail = 200
	inputs := map[string]string{"/var/log/messages": syntheticLog(nFail)}
	for _, model := range []pe.Model{pe.Manual, pe.Dedicated, pe.Dynamic} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			files := compileRun(t, fig1Source+fig1Main, model, 3, inputs)
			lines := files["failures.txt"].Lines()
			if len(lines) != nFail {
				t.Fatalf("got %d failure records, want %d", len(lines), nFail)
			}
			users := map[string]bool{}
			for _, l := range lines {
				// Failure fields: time, uid, euid, tty, rhost, user.
				parts := strings.Split(l, ",")
				if len(parts) != 6 {
					t.Fatalf("record %q has %d fields, want 6", l, len(parts))
				}
				if parts[1] != "0" || parts[2] != "0" || parts[3] != "ssh" {
					t.Fatalf("unexpected failure record %q", l)
				}
				if !strings.HasPrefix(parts[4], "10.0.0.") {
					t.Fatalf("bad rhost in %q", l)
				}
				users[parts[5]] = true
			}
			for i := 0; i < nFail; i++ {
				if !users[fmt.Sprintf("bad%d", i)] {
					t.Fatalf("missing failure for user bad%d", i)
				}
			}
		})
	}
}

func TestCompileFig1GraphShape(t *testing.T) {
	c, err := Compile(fig1Source+fig1Main, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Threading != "dynamic" {
		t.Fatalf("Threading = %q, want dynamic", c.Threading)
	}
	// Nodes: FileSource + split + 7 Custom replicas + Filter + split +
	// 4 Custom replicas + FileSink = 16.
	if got := len(c.Graph.Nodes); got != 16 {
		t.Fatalf("lowered graph has %d nodes, want 16", got)
	}
	st := c.Graph.Stats()
	if st.Sources != 1 || st.Sinks != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCompileParallelPreservesPerReplicaOrder(t *testing.T) {
	src := `
composite Main {
  graph
    stream<int64 i> Nums = Beacon() {
      param iterations: 900;
    }
    @parallel(width=3)
    stream<int64 i> Workers = Work(Nums) {
      param cost: 5;
    }
    () as Out = FileSink(Workers) {
      param file: "o";
    }
}
`
	files := compileRun(t, src, pe.Dynamic, 3, nil)
	lines := files["o"].Lines()
	if len(lines) != 900 {
		t.Fatalf("got %d lines, want 900", len(lines))
	}
	// Round-robin split: replica r sees i ≡ r (mod 3) in increasing
	// order; the sink interleaves replicas arbitrarily but each residue
	// class must arrive ordered.
	last := map[int64]int64{0: -1, 1: -1, 2: -1}
	for _, l := range lines {
		var v int64
		fmt.Sscanf(l, "%d", &v)
		r := v % 3
		if v <= last[r] {
			t.Fatalf("residue class %d out of order: %d after %d", r, v, last[r])
		}
		last[r] = v
	}
}

func TestCompileThreadingAnnotations(t *testing.T) {
	for _, m := range []string{"manual", "dedicated", "dynamic"} {
		src := fmt.Sprintf(`
@threading(model=%s, threads=8)
composite Main {
  graph
    stream<int64 i> N = Beacon() { param iterations: 1; }
    () as S = FileSink(N) { param file: "x"; }
}
`, m)
		c, err := Compile(src, Options{WriterFor: func(string) (io.WriteCloser, error) { return &memFile{}, nil }})
		if err != nil {
			t.Fatal(err)
		}
		if c.Threading != m || c.Threads != 8 {
			t.Fatalf("Threading=%q Threads=%d, want %q/8", c.Threading, c.Threads, m)
		}
	}
}

// compileErrorCases are sources Compile must reject, with a fragment of
// the error each must produce; they also seed FuzzCompile.
var compileErrorCases = []struct {
	name, src, want string
}{
	{"unknown operator", `
composite Main { graph
  stream<int64 i> X = Nonsense() {}
  () as S = FileSink(X) { param file: "x"; }
}`, "unknown operator"},
	{"unknown stream", `
composite Main { graph
  () as S = FileSink(Ghost) { param file: "x"; }
}`, "unknown input stream"},
	{"undefined attr", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 i> F = Filter(N) { param filter: missing > 0; }
  () as S = FileSink(F) { param file: "x"; }
}`, "undefined name"},
	{"filter not boolean", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 i> F = Filter(N) { param filter: i + 1; }
  () as S = FileSink(F) { param file: "x"; }
}`, "want boolean"},
	{"submit bad attribute", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 j> C = Custom(N) {
    logic onTuple N: { submit({nope = i}, C); }
  }
  () as S = FileSink(C) { param file: "x"; }
}`, "no attribute"},
	{"submit wrong stream", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 i> C = Custom(N) {
    logic onTuple N: { submit({i = i}, Elsewhere); }
  }
  () as S = FileSink(C) { param file: "x"; }
}`, "not an output stream"},
	{"assign immutable", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 i> C = Custom(N) {
    logic onTuple N: { int64 x = 1; x = 2; submit({i = x}, C); }
  }
  () as S = FileSink(C) { param file: "x"; }
}`, "declare it 'mutable'"},
	{"duplicate composite", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  () as S = FileSink(N) { param file: "x"; }
}
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  () as S = FileSink(N) { param file: "x"; }
}`, "duplicate composite"},
	{"bad parallel width", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  @parallel(width=zero)
  stream<int64 i> W = Work(N) { param cost: 1; }
  () as S = FileSink(W) { param file: "x"; }
}`, "@parallel requires a positive integer width"},
	{"huge parallel width", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  @parallel(width=900000000)
  stream<int64 i> W = Work(N) { param cost: 1; }
  () as S = FileSink(W) { param file: "x"; }
}`, "exceeds the maximum"},
	{"bad threading model", `
@threading(model=magic)
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  () as S = FileSink(N) { param file: "x"; }
}`, "unknown threading model"},
	{"unknown param", `
composite Main { graph
  stream<int64 i> N = Beacon() { param wrong: 1; }
  () as S = FileSink(N) { param file: "x"; }
}`, `no parameter "wrong"`},
	{"type mismatch in decl", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 i> C = Custom(N) {
    logic onTuple N: { rstring s = i; submit({i = i}, C); }
  }
  () as S = FileSink(C) { param file: "x"; }
}`, "cannot initialize"},
	{"unknown builtin", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 i> C = Custom(N) {
    logic onTuple N: { submit({i = frob(i)}, C); }
  }
  () as S = FileSink(C) { param file: "x"; }
}`, "unknown function"},
	{"filter type change", `
composite Main { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  stream<int64 j> F = Filter(N) { param filter: true; }
  () as S = FileSink(F) { param file: "x"; }
}`, "must equal its input type"},
	{"main with params", `
composite Main(output X) { graph
  stream<int64 i> X = Beacon() { param iterations: 1; }
}`, "must not have input or output parameters"},
	{"missing main", `
composite NotMain { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  () as S = FileSink(N) { param file: "x"; }
}
composite AlsoNotMain { graph
  stream<int64 i> N = Beacon() { param iterations: 1; }
  () as S = FileSink(N) { param file: "x"; }
}`, `main composite "Main" not found`},
}

func TestCompileErrors(t *testing.T) {
	for _, tc := range compileErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, Options{})
			if err == nil {
				t.Fatalf("Compile succeeded, want error %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestCompileCompositeChain(t *testing.T) {
	src := `
composite Doubler(output Out; input In) {
  graph
    stream<int64 i> Out = Custom(In) {
      logic onTuple In: { submit({i = i * 2}, Out); }
    }
}
composite Main {
  graph
    stream<int64 i> N = Beacon() { param iterations: 5; }
    stream<int64 i> A = Doubler(N) {}
    stream<int64 i> B = Doubler(A) {}
    () as S = FileSink(B) { param file: "quad"; }
}
`
	files := compileRun(t, src, pe.Manual, 1, nil)
	lines := files["quad"].Lines()
	want := []string{"0", "4", "8", "12", "16"}
	if len(lines) != 5 {
		t.Fatalf("got %d lines %v", len(lines), lines)
	}
	for i, l := range lines {
		if l != want[i] {
			t.Fatalf("line %d = %q, want %q", i, l, want[i])
		}
	}
}

func TestCompileMainSelection(t *testing.T) {
	src := `
composite OnlyOne {
  graph
    stream<int64 i> N = Beacon() { param iterations: 3; }
    () as S = FileSink(N) { param file: "f"; }
}
`
	// With a single composite, it is the main even if not named Main.
	c, err := Compile(src, Options{WriterFor: func(string) (io.WriteCloser, error) { return &memFile{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Graph.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(c.Graph.Nodes))
	}
	// Explicit Options.Main selects by name.
	if _, err := Compile(src, Options{Main: "Missing"}); err == nil {
		t.Fatal("missing main accepted")
	}
}

// TestBeaconNonScalarAttribute covers the sources' map fallback: a
// tuple type with a list attribute has no frame layout, so Beacon emits
// Tup payloads and the consumer stays on the closure evaluator.
func TestBeaconNonScalarAttribute(t *testing.T) {
	const src = `
composite Main {
  graph
    stream<int64 i, list<rstring> l> N = Beacon() { param iterations: 3; }
    stream<int64 n> C = Custom(N) {
      logic onTuple N: { submit({ n = i * 10 + size(l) }, C); }
    }
    () as Out = FileSink(C) { param file: "out.txt"; }
}
`
	files := compileRun(t, src, pe.Manual, 1, nil)
	if got, want := strings.Join(files["out.txt"].Lines(), " "), "0 10 20"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
