package spl

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
	"streams/internal/vm"
)

// The paper's Figure 1 program, end to end on bytecode: every logic
// operator of LoginFailures must carry a program, and the compiled
// pipeline must produce exactly what the closure evaluator produces —
// including on lines too short to index, which fault inside the
// operator on both paths.

// loginsSource is the example's program text, the one splc and the
// performance ledger also run.
func loginsSource(t testing.TB) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/loginfailures/loginfailures.spl")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// loginsLog fabricates n syslog lines from seed: sshd authentication
// failures with and without a user= field, traffic the Filter drops,
// runs of spaces between tokens, five-token lines (an empty message
// tail) and lines under five tokens, which make tokens[4] fault. It
// returns the log and how many lines fault.
func loginsLog(seed int64, n int) (log string, short int) {
	r := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < n; i++ {
		head := fmt.Sprintf("Jun %d %02d:%02d:%02d host%d", 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60), r.Intn(16))
		pid := 1000 + r.Intn(60000)
		switch k := r.Intn(16); {
		case k < 4:
			fmt.Fprintf(&sb, "%s sshd[%d]: pam_unix(sshd:auth): authentication failure; logname= uid=%d euid=%d tty=ssh ruser= rhost=198.51.100.%d user=invader%d\n",
				head, pid, r.Intn(3), r.Intn(3), 1+r.Intn(254), r.Intn(1000))
		case k < 6:
			fmt.Fprintf(&sb, "%s sshd[%d]: pam_unix(sshd:auth): authentication failure; logname= uid=%d euid=%d tty=ssh ruser= rhost=203.0.113.%d\n",
				head, pid, r.Intn(3), r.Intn(3), 1+r.Intn(254))
		case k < 8:
			fmt.Fprintf(&sb, "%s  sshd[%d]:   authentication failure;  uid=0 euid=0  tty=ssh rhost=h%d user=\n", head, pid, r.Intn(9))
		case k < 10:
			fmt.Fprintf(&sb, "%s cron[%d]: (root) CMD (run-parts /etc/cron.hourly)\n", head, pid)
		case k < 12:
			fmt.Fprintf(&sb, "%s sshd[%d]: Accepted publickey for deploy from 203.0.113.%d\n", head, pid, 1+r.Intn(254))
		case k < 13:
			fmt.Fprintf(&sb, "%s su[%d]: pam_unix(su:auth): authentication failure; logname=ops uid=%d euid=0 tty=pts/1 ruser=ops rhost= user=root\n", head, pid, 1000+r.Intn(50))
		case k < 14:
			fmt.Fprintf(&sb, "%s sshd[%d]:\n", head, pid) // five tokens: empty tail
		default:
			sb.WriteString([]string{"\n", "-- MARK --\n", "Jun 10 03:04:05 host1\n"}[r.Intn(3)])
			short++
		}
	}
	return sb.String(), short
}

// logicOps returns the compiled graph's logic operators: those with
// inputs and outputs, the @parallel splitters excluded.
func logicOps(g *graph.Graph) []graph.Operator {
	var out []graph.Operator
	for _, n := range g.Nodes {
		if _, split := n.Op.(*ops.RoundRobinSplit); split || n.NumIn == 0 || n.NumOut == 0 {
			continue
		}
		out = append(out, n.Op)
	}
	return out
}

// runLogins runs LoginFailures over log under the dynamic scheduler and
// returns the sorted sink lines and the number of contained operator
// panics. Quarantine is disabled: the point is that each short line
// faults on its own, not what the runtime does with a repeat offender.
func runLogins(t *testing.T, log string, opts Options) ([]string, uint64) {
	t.Helper()
	sink := &memFile{}
	opts.ReaderFor = func(string) (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(log)), nil }
	opts.WriterFor = func(string) (io.WriteCloser, error) { return sink, nil }
	c, err := Compile(loginsSource(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range logicOps(c.Graph) {
		if p := op.(vm.Programmed).VMProgram(); (p == nil) != opts.NoVM {
			t.Fatalf("NoVM=%v: operator %s has program %v", opts.NoVM, op.Name(), p != nil)
		}
	}
	p, err := pe.New(c.Graph, pe.Config{Model: pe.Dynamic, Threads: 2, MaxThreads: 2, QuarantineAfter: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitTimeout(60 * time.Second); err != nil {
		t.Fatalf("LoginFailures did not drain: %v", err)
	}
	if err := c.Sinks["Sink"].Err(); err != nil {
		t.Fatal(err)
	}
	lines := sink.Lines()
	slices.Sort(lines)
	return lines, p.FaultStats().OpPanics
}

func TestLoginFailuresAllBytecode(t *testing.T) {
	c, err := Compile(loginsSource(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	logic := logicOps(c.Graph)
	if len(logic) != 12 {
		t.Fatalf("LoginFailures has %d logic operators, want 12 (7 + 1 + 4)", len(logic))
	}
	for _, op := range logic {
		if op.(vm.Programmed).VMProgram() == nil {
			t.Errorf("operator %s fell back to the closure evaluator", op.Name())
		}
	}
}

func TestLoginFailuresMatchesClosureEvaluator(t *testing.T) {
	log, short := loginsLog(20260927, 4000)
	if short == 0 {
		t.Fatal("seeded log has no short lines")
	}
	got, gotFaults := runLogins(t, log, Options{})
	want, wantFaults := runLogins(t, log, Options{NoVM: true})
	if len(want) == 0 {
		t.Fatal("closure run produced no failures")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("bytecode and closure outputs differ: %d vs %d records", len(got), len(want))
	}
	if gotFaults != uint64(short) || wantFaults != uint64(short) {
		t.Fatalf("contained faults: bytecode %d, closure %d, want %d (one per short line)", gotFaults, wantFaults, short)
	}
	withUser, withoutUser := 0, 0
	for _, l := range got {
		if strings.HasSuffix(l, ",") {
			withoutUser++
		} else {
			withUser++
		}
	}
	if withUser == 0 || withoutUser == 0 {
		t.Fatalf("log did not cover both user= shapes: %d with, %d without", withUser, withoutUser)
	}
}

// stageProgram returns the program of the first replica of one
// LoginFailures stage.
func stageProgram(t testing.TB, stage string) *vm.Program {
	t.Helper()
	c, err := Compile(loginsSource(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range logicOps(c.Graph) {
		if strings.HasSuffix(op.Name(), "/"+stage) {
			return op.(vm.Programmed).VMProgram()
		}
	}
	t.Fatalf("no stage %s", stage)
	return nil
}

const stageMsg = "pam_unix(sshd:auth): authentication failure; logname= uid=0 euid=0 tty=ssh ruser= rhost=198.51.100.7 user=invader7"

// stageInputs is one representative input row per list program, with
// the allocations running it may cost.
var stageInputs = []struct {
	stage  string
	in     Tup
	budget float64
}{
	{"ParsedLines", Tup{"line": "Jun 10 03:04:05 host1 sshd[4000]: " + stageMsg}, 2},
	{"Failures", Tup{"time": "10 03:04:05", "hostname": "host1", "srvc": "sshd[4000]:", "msg": stageMsg}, 0},
}

// TestLoginFailuresStageAllocs guards the per-row allocation budget of
// the two list programs. Tokens are substrings of the input and lists
// live in the machine's arena, so parsing a line allocates exactly the
// two strings it builds — makeTimestamp's concatenation and flatten's
// join — and extracting a failure allocates nothing; emitted rows land
// in frames, amortized under frameAllocsSlack.
func TestLoginFailuresStageAllocs(t *testing.T) {
	sink := vm.EmitFunc(func(tuple.Tuple) {})
	for _, tc := range stageInputs {
		p := stageProgram(t, tc.stage)
		var m vm.Machine
		in := tuple.Tuple{Ref: tc.in}
		m.Run(p, in, sink) // warm the machine's buffers, arena and store
		if avg := testing.AllocsPerRun(2000, func() { m.Run(p, in, sink) }); avg > tc.budget+frameAllocsSlack {
			t.Errorf("%s allocates %.3f/row, budget %.0f", tc.stage, avg, tc.budget)
		}
	}
}

// BenchmarkLoginFailuresStage times the two list programs per row.
func BenchmarkLoginFailuresStage(b *testing.B) {
	sink := vm.EmitFunc(func(tuple.Tuple) {})
	for _, tc := range stageInputs {
		b.Run(tc.stage, func(b *testing.B) {
			p := stageProgram(b, tc.stage)
			var m vm.Machine
			in := tuple.Tuple{Ref: tc.in}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(p, in, sink)
			}
		})
	}
}
