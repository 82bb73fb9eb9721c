package main

import (
	"testing"
	"time"

	"streams/internal/tuple"
)

// fakeWire stands in for the socket and the system behind it: a tuple
// is "delivered" the instant its burst is flushed, so its latency is
// flush time minus due time — what the sink would see from a system
// that adds no delay of its own.
type fakeWire struct {
	now     func() time.Duration
	pending []tuple.Tuple
	got     []tuple.Tuple
	latency []time.Duration
}

func (w *fakeWire) Send(t tuple.Tuple) error {
	w.pending = append(w.pending, t)
	return nil
}

func (w *fakeWire) Flush() error {
	at := w.now()
	for _, t := range w.pending {
		w.got = append(w.got, t)
		w.latency = append(w.latency, at-time.Duration(t.Words[1]))
	}
	w.pending = w.pending[:0]
	return nil
}

// TestGeneratorStallIsChargedToDueTuples injects a 20 ms stall into the
// generator and checks that every tuple that was due during the stall
// is still sent, stamped with its due time, and therefore shows the
// stall in its latency. A generator with coordinated omission would
// skip those tuples or stamp them with the send time, and show ~0.
func TestGeneratorStallIsChargedToDueTuples(t *testing.T) {
	const (
		stallAt = 50 * time.Millisecond
		stall   = 20 * time.Millisecond
	)
	var clock time.Duration
	stalled := false
	wire := &fakeWire{now: func() time.Duration { return clock }}
	g := &generator{
		out: wire, rate: 10_000, first: 37 * time.Microsecond, end: 200 * time.Millisecond,
		now: wire.now,
		sleep: func(d time.Duration) {
			clock += d
			if !stalled && clock >= stallAt {
				stalled = true
				clock += stall
			}
		},
	}
	if err := g.run(); err != nil {
		t.Fatal(err)
	}

	if want := g.total(); g.sent != want || uint64(len(wire.got)) != want {
		t.Fatalf("sent %d, delivered %d, schedule holds %d", g.sent, len(wire.got), want)
	}
	var stallStart, stallEnd time.Duration
	inStall, worst := 0, time.Duration(0)
	for i, tup := range wire.got {
		if tup.Words[0] != uint64(i) {
			t.Fatalf("tuple %d carries counter %d", i, tup.Words[0])
		}
		due := time.Duration(tup.Words[1])
		if due != g.due(uint64(i)) {
			t.Fatalf("tuple %d stamped %v, due %v", i, due, g.due(uint64(i)))
		}
		if stallStart == 0 && wire.latency[i] >= stall/2 {
			stallStart, stallEnd = due, due+wire.latency[i]
		}
		if stallStart != 0 && due >= stallStart && due < stallEnd {
			inStall++
			// Asleep until stallEnd, the generator cannot have flushed
			// the tuple any earlier.
			if wire.latency[i] < stallEnd-due {
				t.Errorf("tuple %d due %v during the stall shows latency %v, want at least %v", i, due, wire.latency[i], stallEnd-due)
			}
			worst = max(worst, wire.latency[i])
		} else if wire.latency[i] > time.Millisecond {
			t.Errorf("tuple %d due %v outside the stall shows latency %v", i, due, wire.latency[i])
		}
	}
	if want := int(stall.Seconds() * g.rate); inStall < want-2 {
		t.Errorf("%d tuples were charged the stall, want about %d", inStall, want)
	}
	if worst < stall-time.Millisecond {
		t.Errorf("largest latency %v, want about the %v stall", worst, stall)
	}
	if g.lateMax < stall-time.Millisecond {
		t.Errorf("generator reports lateMax %v, want about %v", g.lateMax, stall)
	}
}

func TestScheduleCounts(t *testing.T) {
	g := &generator{rate: 100_000, first: 3 * time.Microsecond, end: time.Second}
	if got := g.total(); got != 100_000 {
		t.Errorf("total = %d, want 100000", got)
	}
	if got := g.dueBefore(250*time.Millisecond) + (g.total() - g.dueBefore(250*time.Millisecond)); got != g.total() {
		t.Errorf("dueBefore does not partition the schedule: %d", got)
	}
	if got := g.dueBefore(250 * time.Millisecond); got != 25_000 {
		t.Errorf("dueBefore(250ms) = %d, want 25000", got)
	}
}
