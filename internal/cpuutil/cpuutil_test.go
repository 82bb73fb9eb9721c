package cpuutil

import (
	"errors"
	"testing"
)

func TestParseStatLine(t *testing.T) {
	content := "cpu  100 0 50 800 50 0 0 0 0 0\ncpu0 1 2 3 4\n"
	busy, total, err := parseStat([]byte(content))
	if err != nil {
		t.Fatal(err)
	}
	if total != 1000 {
		t.Fatalf("total = %d, want 1000", total)
	}
	if busy != 150 { // everything except idle(800) and iowait(50)
		t.Fatalf("busy = %d, want 150", busy)
	}
}

func TestParseStatLineErrors(t *testing.T) {
	cases := []string{
		"",
		"cpu0 1 2 3 4\n",       // no aggregate line
		"cpu  1 2\n",           // too few fields
		"cpu  1 2 three 4 5\n", // non-numeric
		// Truncated and garbage shapes a partial or corrupt read can
		// produce:
		"cpu  1 2 3",                          // truncated before the 4th field
		"cpu ",                                // truncated right after the prefix
		"cpu  1 2 3 4x 5\n",                   // garbage fused to a number
		"cpu  18446744073709551616 1 2 3 4\n", // overflows uint64
		"cpu  1 2 3 4 \x00\n",                 // binary garbage field
	}
	for _, c := range cases {
		if _, _, err := parseStat([]byte(c)); err == nil {
			t.Errorf("parseStat(%q) succeeded, want error", c)
		}
	}
}

func TestParseStatLineTruncatedTail(t *testing.T) {
	// A read cut mid-file must still parse if the aggregate line itself
	// survived intact (no trailing newline).
	busy, total, err := parseStat([]byte("cpu  100 0 50 800 50"))
	if err != nil {
		t.Fatal(err)
	}
	if busy != 150 || total != 1000 {
		t.Fatalf("busy/total = %d/%d, want 150/1000", busy, total)
	}
}

func TestGateThreshold(t *testing.T) {
	g := NewGate(Fixed(0.5), 0.8)
	if !g.Acceptable() {
		t.Fatal("usage 0.5 below threshold 0.8 should be acceptable")
	}
	g = NewGate(Fixed(0.9), 0.8)
	if g.Acceptable() {
		t.Fatal("usage 0.9 above threshold 0.8 should not be acceptable")
	}
	g = NewGate(Fixed(0.8), 0.8)
	if g.Acceptable() {
		t.Fatal("usage exactly at threshold should not be acceptable")
	}
}

func TestGateFailsOpen(t *testing.T) {
	g := NewGate(func() (float64, error) { return 0, errors.New("boom") }, 0.8)
	if !g.Acceptable() {
		t.Fatal("errors should fail open")
	}
}

func TestGateDefaults(t *testing.T) {
	// Nil usage selects /proc/stat; on Linux hosts this must not error
	// through Acceptable (and fails open elsewhere).
	g := NewGate(nil, 0)
	_ = g.Acceptable()
	if g.threshold != DefaultThreshold {
		t.Fatalf("threshold = %g, want %g", g.threshold, DefaultThreshold)
	}
}

func TestProcStatUsageNoAllocs(t *testing.T) {
	u := ProcStatUsage()
	if _, err := u(); err != nil {
		t.Skipf("no /proc/stat on this platform: %v", err)
	}
	// After the first sample opens the file and sizes the buffer, the
	// steady-state tick must not allocate.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := u(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ProcStatUsage allocates %.1f objects per sample, want 0", allocs)
	}
}

func TestProcStatUsageDelta(t *testing.T) {
	// First reading establishes the baseline and reports zero.
	u := ProcStatUsage()
	v, err := u()
	if err != nil {
		t.Skipf("no /proc/stat on this platform: %v", err)
	}
	if v != 0 {
		t.Fatalf("first reading = %g, want 0 (baseline)", v)
	}
	v, err = u()
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v > 1 {
		t.Fatalf("usage %g out of [0,1]", v)
	}
}
