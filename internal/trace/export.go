package trace

import (
	"encoding/json"
	"io"
	"maps"
	"time"
)

// The Chrome trace_event JSON export: open the file in chrome://tracing
// or https://ui.perfetto.dev to see the run on a timeline. Each ring
// becomes one named thread row; acquire/release and park/unpark pairs
// become complete ("X") duration events, everything else an instant
// ("i") whose args are decoded from the kind's registry schema. Timestamps are microseconds (the format's unit) with
// sub-microsecond precision kept as fractions.

// teEvent is one trace_event record. Only the fields the viewers read
// are emitted.
type teEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type teFile struct {
	TraceEvents     []teEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

const tracePID = 1

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Export writes the tracer's current snapshot in Chrome trace_event
// format. It may run while the trace is live; see Snapshot for the
// consistency guarantee.
func (t *Tracer) Export(w io.Writer) error {
	return writeTraceEvents(w, t.Snapshot(), t.ringLabels())
}

func (t *Tracer) ringLabels() []string {
	if t == nil {
		return nil
	}
	return t.labels
}

// ExportEvents renders an already-captured event list (for tests and
// offline processing). labels may be nil or shorter than the ring
// count; missing rings fall back to "ring-N".
func ExportEvents(w io.Writer, events []Event, labels []string) error {
	return writeTraceEvents(w, events, labels)
}

func writeTraceEvents(w io.Writer, events []Event, labels []string) error {
	out := teFile{
		TraceEvents:     make([]teEvent, 0, len(events)+len(labels)+1),
		DisplayTimeUnit: "ns",
	}
	out.TraceEvents = append(out.TraceEvents, teEvent{
		Name: "process_name", Phase: "M", PID: tracePID,
		Args: map[string]any{"name": "streams"},
	})
	for i, l := range labels {
		out.TraceEvents = append(out.TraceEvents, teEvent{
			Name: "thread_name", Phase: "M", PID: tracePID, TID: i,
			Args: map[string]any{"name": l},
		})
	}
	// Open acquire/park per ring, for pairing into duration events.
	// Events arrive sorted by time, and within one ring the begin/end
	// kinds strictly alternate (they are emitted by straight-line code),
	// so a one-slot pending record per ring suffices.
	type pending struct {
		ok bool
		ev Event
	}
	acq := map[int]pending{}
	park := map[int]pending{}
	// instant emits one event as an instant named name, its args decoded
	// by its kind's schema. Half of an unpaired drain or park (a snapshot
	// cut mid-drain, or a begin lost to ring wrap) is emitted this way.
	instant := func(e Event, name string) {
		out.TraceEvents = append(out.TraceEvents, teEvent{
			Name: name, Phase: "i", TS: usec(e.TS), PID: tracePID, TID: e.Ring, Scope: "t",
			Args: e.Kind.exportArgs(e.Arg),
		})
	}
	for _, e := range events {
		switch e.Kind {
		case KindAcquire:
			if p := acq[e.Ring]; p.ok {
				instant(p.ev, "drain")
			}
			acq[e.Ring] = pending{ok: true, ev: e}
		case KindRelease:
			if p := acq[e.Ring]; p.ok {
				delete(acq, e.Ring)
				args := p.ev.Kind.exportArgs(p.ev.Arg)
				maps.Copy(args, e.Kind.exportArgs(e.Arg))
				out.TraceEvents = append(out.TraceEvents, teEvent{
					Name: "drain", Phase: "X", TS: usec(p.ev.TS), Dur: usec(e.TS - p.ev.TS),
					PID: tracePID, TID: e.Ring, Args: args,
				})
			} else {
				// Acquire lost to ring wrap: keep the release as an instant
				// so the drain still shows up.
				instant(e, "drain")
			}
		case KindPark:
			if p := park[e.Ring]; p.ok {
				instant(p.ev, "park")
			}
			park[e.Ring] = pending{ok: true, ev: e}
		case KindUnpark:
			if p := park[e.Ring]; p.ok {
				delete(park, e.Ring)
				out.TraceEvents = append(out.TraceEvents, teEvent{
					Name: "park", Phase: "X", TS: usec(p.ev.TS), Dur: usec(e.TS - p.ev.TS),
					PID: tracePID, TID: e.Ring,
				})
			} else {
				instant(e, "park")
			}
		default:
			instant(e, e.Kind.String())
		}
	}
	for _, p := range acq {
		instant(p.ev, "drain")
	}
	for _, p := range park {
		instant(p.ev, "park")
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Kinds tallies an event list by kind name — the smoke test's "≥4 event
// kinds" check and a handy summary for CLI output.
func Kinds(events []Event) map[string]int {
	out := map[string]int{}
	for _, e := range events {
		out[e.Kind.String()]++
	}
	return out
}
