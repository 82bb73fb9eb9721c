package trace

import (
	"encoding/json"
	"io"
	"time"
)

// The Chrome trace_event JSON export: open the file in chrome://tracing
// or https://ui.perfetto.dev to see the run on a timeline. Each ring
// becomes one named thread row; acquire/release and park/unpark pairs
// become complete ("X") duration events, everything else an instant
// ("i"). Timestamps are microseconds (the format's unit) with
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
	flush := func(p pending, name string, args map[string]any) {
		// An unpaired begin (snapshot cut mid-drain): emit as instant.
		out.TraceEvents = append(out.TraceEvents, teEvent{
			Name: name, Phase: "i", TS: usec(p.ev.TS), PID: tracePID, TID: p.ev.Ring, Scope: "t", Args: args,
		})
	}
	for _, e := range events {
		switch e.Kind {
		case KindAcquire:
			if p := acq[e.Ring]; p.ok {
				flush(p, "drain", map[string]any{"port": p.ev.Arg})
			}
			acq[e.Ring] = pending{ok: true, ev: e}
		case KindRelease:
			if p := acq[e.Ring]; p.ok {
				delete(acq, e.Ring)
				out.TraceEvents = append(out.TraceEvents, teEvent{
					Name: "drain", Phase: "X", TS: usec(p.ev.TS), Dur: usec(e.TS - p.ev.TS),
					PID: tracePID, TID: e.Ring,
					Args: map[string]any{"port": p.ev.Arg, "tuples": e.Arg},
				})
			} else {
				// Acquire lost to ring wrap: keep the release as an instant
				// so the drain still shows up.
				out.TraceEvents = append(out.TraceEvents, teEvent{
					Name: "drain", Phase: "i", TS: usec(e.TS), PID: tracePID, TID: e.Ring, Scope: "t",
					Args: map[string]any{"tuples": e.Arg},
				})
			}
		case KindPark:
			if p := park[e.Ring]; p.ok {
				flush(p, "park", nil)
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
				out.TraceEvents = append(out.TraceEvents, teEvent{
					Name: "park", Phase: "i", TS: usec(e.TS), PID: tracePID, TID: e.Ring, Scope: "t",
				})
			}
		case KindSteal:
			victim, port := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"victim": victim, "port": port,
			}))
		case KindElastic:
			level, thput := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"level": level, "throughput": thput,
			}))
		case KindChain:
			depth, port := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"depth": depth, "port": port,
			}))
		case KindChainStop:
			reason, port := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"reason": ChainStopReason(reason), "port": port,
			}))
		case KindVMFuse:
			segs, port := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"segs": segs, "port": port,
			}))
		case KindVMVec, KindVMVecAbort:
			rows, port := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"rows": rows, "port": port,
			}))
		case KindAdmit, KindShed, KindThrottle:
			tenant, count := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"tenant": tenant, "count": count,
			}))
		case KindBPSample:
			port, occ := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"port": port, "occ": occ,
			}))
		case KindFlightRec:
			reason, samples := UnpackPair(e.Arg)
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{
				"reason": FlightRecReason(reason), "samples": samples,
			}))
		case KindSpill, KindResched:
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{"port": e.Arg}))
		case KindQuarantine:
			out.TraceEvents = append(out.TraceEvents, instant(e, map[string]any{"node": e.Arg}))
		default:
			out.TraceEvents = append(out.TraceEvents, instant(e, nil))
		}
	}
	for _, p := range acq {
		flush(p, "drain", map[string]any{"port": p.ev.Arg})
	}
	for _, p := range park {
		flush(p, "park", nil)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func instant(e Event, args map[string]any) teEvent {
	return teEvent{
		Name: e.Kind.String(), Phase: "i", TS: usec(e.TS),
		PID: tracePID, TID: e.Ring, Scope: "t", Args: args,
	}
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
