package trace

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestDisabledDropsEvents(t *testing.T) {
	tr := New(2, 64)
	tr.Emit(0, KindSteal, 7)
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(got))
	}
	tr.Enable()
	tr.Emit(0, KindSteal, 7)
	tr.Disable()
	tr.Emit(0, KindSteal, 8)
	got := tr.Snapshot()
	if len(got) != 1 || got[0].Arg != 7 {
		t.Fatalf("want the one enabled-window event, got %v", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.On() {
		t.Fatal("nil tracer reports On")
	}
	tr.Emit(0, KindPark, 0)
	tr.SetLabel(0, "x")
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}

func TestOutOfRangeRingDrops(t *testing.T) {
	tr := New(1, 64)
	tr.Enable()
	tr.Emit(-1, KindSteal, 1)
	tr.Emit(5, KindSteal, 2)
	tr.Emit(0, KindSteal, 3)
	got := tr.Snapshot()
	if len(got) != 1 || got[0].Arg != 3 {
		t.Fatalf("want only the in-range event, got %v", got)
	}
}

func TestRingOrderAndMerge(t *testing.T) {
	tr := New(3, 64)
	tr.Enable()
	for i := 0; i < 10; i++ {
		tr.Emit(i%3, KindSpill, int64(i))
	}
	got := tr.Snapshot()
	if len(got) != 10 {
		t.Fatalf("want 10 events, got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].TS < got[i-1].TS {
			t.Fatalf("events not time-sorted: %v then %v", got[i-1], got[i])
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(1, 8)
	tr.Enable()
	const n = 100
	for i := 0; i < n; i++ {
		tr.Emit(0, KindResched, int64(i))
	}
	got := tr.Snapshot()
	if len(got) != 8 {
		t.Fatalf("want the 8 newest events, got %d", len(got))
	}
	for i, e := range got {
		if want := int64(n - 8 + i); e.Arg != want {
			t.Fatalf("event %d: arg %d, want %d", i, e.Arg, want)
		}
	}
}

// TestConcurrentSnapshotIsConsistent hammers one writer per ring while
// readers snapshot continuously. Run under -race this also proves the
// rings are data-race-free; the assertion checks no torn event is ever
// returned (kind and arg must agree by construction).
func TestConcurrentSnapshotIsConsistent(t *testing.T) {
	tr := New(4, 256)
	tr.Enable()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ring := 0; ring < 4; ring++ {
		wg.Add(1)
		go func(ring int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Writer r only ever emits kind KindSteal with arg
				// ring*1e9+i, so any mixed-up slot is detectable.
				tr.Emit(ring, KindSteal, int64(ring)*1_000_000_000+int64(i))
			}
		}(ring)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, e := range tr.Snapshot() {
			if e.Kind != KindSteal {
				t.Errorf("torn event: kind %v", e.Kind)
			}
			if got := int(e.Arg / 1_000_000_000); got != e.Ring {
				t.Errorf("torn event: ring %d carries arg %d", e.Ring, e.Arg)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestPackPair(t *testing.T) {
	hi, lo := UnpackPair(PackPair(-3, 12345))
	if hi != -3 || lo != 12345 {
		t.Fatalf("round trip gave %d, %d", hi, lo)
	}
	hi, lo = UnpackPair(PackPair(1<<31-1, 1<<32-1))
	if hi != 1<<31-1 || lo != 1<<32-1 {
		t.Fatalf("extremes gave %d, %d", hi, lo)
	}
}

func TestKindStringsAreStable(t *testing.T) {
	// Kinds cross every boundary — the trace_event export, tracecheck,
	// the flight recorder, the smoke tests' -require lists — by name,
	// never by number, so the enum may renumber but a rename (or a hole
	// that prints as "Kind(n)") is a compatibility break.
	want := []string{
		"acquire", "release", "steal", "spill", "park", "unpark", "resched",
		"quarantine", "elastic-level", "chain", "chain-stop", "vm-fuse",
		"admit", "shed", "throttle", "bp-sample", "flightrec-dump",
		"vm-vec", "vm-vec-abort",
	}
	if got := KindNames(); !slices.Equal(got, want) {
		t.Fatalf("KindNames() = %v, want %v", got, want)
	}
}
