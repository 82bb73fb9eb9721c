// Command tracecheck validates a Chrome trace_event JSON file of the
// shape streamsim's -trace flag (and /debugz/trace) emits, so CI can
// prove a trace loads in chrome://tracing before anyone opens it.
//
//	tracecheck [-strict] [-require kind,kind,...] trace.json
//
// It checks the document structure (a traceEvents array of objects with
// name/ph/ts/pid/tid, a known phase, non-negative timestamps, and a
// non-negative dur on complete events), prints a per-event-name tally,
// and — with -require — fails unless every named event kind appears at
// least once. With -strict it additionally fails on any event kind the
// runtime's exporter does not emit, so a schema drift between exporter
// and checker breaks CI instead of silently passing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"streams/internal/trace"
)

// event is one trace_event record; pointers distinguish absent fields
// from zero values.
type event struct {
	Name *string        `json:"name"`
	Ph   *string        `json:"ph"`
	TS   *float64       `json:"ts"`
	PID  *int           `json:"pid"`
	TID  *int           `json:"tid"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

// knownPhases is the set of trace_event phase codes the exporter emits:
// complete spans, instants, and metadata.
var knownPhases = map[string]bool{"X": true, "i": true, "M": true}

// chainStopReasons is the closed set of fall-back reasons the exporter
// writes on chain-stop instants (trace.ChainStopReason).
var chainStopReasons = map[string]bool{
	"depth": true, "budget": true, "lock": true, "occupied": true, "halt": true,
}

// flightRecReasons is the closed set of trigger names the flight
// recorder writes on flightrec-dump instants, derived from the trace
// package's own reason table so the two cannot drift.
var flightRecReasons = func() map[string]bool {
	m := map[string]bool{}
	for _, c := range []int32{
		trace.FlightRecQuarantine, trace.FlightRecWatchdog,
		trace.FlightRecShutdown, trace.FlightRecOverload, trace.FlightRecManual,
	} {
		m[trace.FlightRecReason(c)] = true
	}
	return m
}()

// knownNames is every event name the exporter can emit: the trace
// kinds plus the drain/park spans the exporter synthesizes from
// start/end pairs. -strict fails on anything else.
var knownNames = func() map[string]bool {
	m := map[string]bool{"drain": true, "park": true}
	for _, n := range trace.KindNames() {
		m[n] = true
	}
	return m
}()

// checkArgs validates the argument payload of the instants with a
// typed schema: a chain link must carry its 1-based depth and a
// non-negative port, a chain-stop must name a known fall-back reason,
// a steal must carry a non-negative victim and port, a vm-fuse a fused
// segment count of at least 2 on a non-negative port, and a vm-vec (or
// vm-vec-abort) a vectorized batch of at least one row. Any other event
// name passes through untouched.
func checkArgs(e event) error {
	num := func(key string, min float64) (float64, error) {
		v, ok := e.Args[key]
		if !ok {
			return 0, fmt.Errorf("missing arg %q", key)
		}
		f, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("arg %q is %T, want number", key, v)
		}
		if f < min {
			return 0, fmt.Errorf("arg %q = %v, want >= %v", key, f, min)
		}
		return f, nil
	}
	switch *e.Name {
	case "chain":
		if _, err := num("depth", 1); err != nil {
			return err
		}
		if _, err := num("port", 0); err != nil {
			return err
		}
	case "chain-stop":
		v, ok := e.Args["reason"]
		if !ok {
			return fmt.Errorf("missing arg %q", "reason")
		}
		r, ok := v.(string)
		if !ok || !chainStopReasons[r] {
			return fmt.Errorf("arg \"reason\" = %v, want one of depth/budget/lock/occupied/halt", v)
		}
		if _, err := num("port", 0); err != nil {
			return err
		}
	case "steal":
		if _, err := num("victim", 0); err != nil {
			return err
		}
		if _, err := num("port", 0); err != nil {
			return err
		}
	case "vm-fuse":
		if _, err := num("segs", 2); err != nil {
			return err
		}
		if _, err := num("port", 0); err != nil {
			return err
		}
	case "vm-vec", "vm-vec-abort":
		if _, err := num("rows", 1); err != nil {
			return err
		}
		if _, err := num("port", 0); err != nil {
			return err
		}
	case "admit", "shed", "throttle":
		if _, err := num("tenant", 0); err != nil {
			return err
		}
		if _, err := num("count", 1); err != nil {
			return err
		}
	case "bp-sample":
		// port is -1 when every queue was empty at the sample.
		if _, err := num("port", -1); err != nil {
			return err
		}
		if _, err := num("occ", 0); err != nil {
			return err
		}
	case "flightrec-dump":
		v, ok := e.Args["reason"]
		if !ok {
			return fmt.Errorf("missing arg %q", "reason")
		}
		r, ok := v.(string)
		if !ok || !flightRecReasons[r] {
			return fmt.Errorf("arg \"reason\" = %v, want a flight-recorder trigger name", v)
		}
		if _, err := num("samples", 0); err != nil {
			return err
		}
	}
	return nil
}

func check(path string, require []string, strict bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("%s: no traceEvents array", path)
	}

	counts := map[string]int{}
	for i, e := range doc.TraceEvents {
		switch {
		case e.Name == nil || *e.Name == "":
			return fmt.Errorf("%s: event %d has no name", path, i)
		case e.Ph == nil:
			return fmt.Errorf("%s: event %d (%s) has no ph", path, i, *e.Name)
		case !knownPhases[*e.Ph]:
			return fmt.Errorf("%s: event %d (%s) has unknown phase %q", path, i, *e.Name, *e.Ph)
		case e.PID == nil || e.TID == nil:
			return fmt.Errorf("%s: event %d (%s) missing pid/tid", path, i, *e.Name)
		}
		if *e.Ph == "M" {
			continue // metadata records carry no timestamp
		}
		if strict && !knownNames[*e.Name] {
			return fmt.Errorf("%s: event %d has unknown kind %q (-strict)", path, i, *e.Name)
		}
		switch {
		case e.TS == nil || *e.TS < 0:
			return fmt.Errorf("%s: event %d (%s) has bad ts", path, i, *e.Name)
		case *e.Ph == "X" && (e.Dur == nil || *e.Dur < 0):
			return fmt.Errorf("%s: event %d (%s) is a complete event with bad dur", path, i, *e.Name)
		}
		if err := checkArgs(e); err != nil {
			return fmt.Errorf("%s: event %d (%s): %w", path, i, *e.Name, err)
		}
		counts[*e.Name]++
	}

	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d events ok\n", path, len(doc.TraceEvents))
	for _, n := range names {
		fmt.Printf("  %-16s %d\n", n, counts[n])
	}

	var missing []string
	for _, k := range require {
		if counts[k] == 0 {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: required event kinds missing: %s", path, strings.Join(missing, ", "))
	}
	return nil
}

func main() {
	requireFlag := flag.String("require", "", "comma-separated event names that must each appear at least once")
	strict := flag.Bool("strict", false, "fail on event kinds the runtime's exporter does not emit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-strict] [-require kind,...] trace.json")
		os.Exit(2)
	}
	var require []string
	if *requireFlag != "" {
		for _, k := range strings.Split(*requireFlag, ",") {
			if k = strings.TrimSpace(k); k != "" {
				require = append(require, k)
			}
		}
	}
	if err := check(flag.Arg(0), require, *strict); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}
