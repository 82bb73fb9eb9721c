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
	"slices"
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

// schemas maps every event name the exporter can emit to its argument
// schema: each trace kind's row of the trace registry, plus the drain
// span the exporter pairs from an acquire (its port) and a release (its
// tuple count). -strict fails on any other name.
var schemas = func() map[string][]trace.Arg {
	m := map[string][]trace.Arg{
		"drain": slices.Concat(trace.KindAcquire.Args(), trace.KindRelease.Args()),
	}
	for _, k := range trace.AllKinds() {
		m[k.String()] = k.Args()
	}
	return m
}()

// checkArgs validates an event's args against its schema: every
// argument present, a numeric one at least its minimum, a reason one of
// its closed set of names. A drain instant is half a pair — its acquire
// or its release was cut off — so it carries one side's args, not both.
// Names without a schema pass through untouched.
func checkArgs(e event) error {
	half := *e.Name == "drain" && *e.Ph == "i"
	n := 0
	for _, a := range schemas[*e.Name] {
		v, ok := e.Args[a.Name]
		if !ok {
			if half {
				continue
			}
			return fmt.Errorf("missing arg %q", a.Name)
		}
		n++
		if a.Enum != nil {
			if r, ok := v.(string); !ok || !slices.Contains(a.Enum, r) {
				return fmt.Errorf("arg %q = %v, want one of %s", a.Name, v, strings.Join(a.Enum, "/"))
			}
			continue
		}
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("arg %q is %T, want number", a.Name, v)
		}
		if f < float64(a.Min) {
			return fmt.Errorf("arg %q = %v, want >= %d", a.Name, f, a.Min)
		}
	}
	if half && n == 0 {
		return fmt.Errorf("drain instant carries neither port nor tuples")
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
		if _, known := schemas[*e.Name]; strict && !known {
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
