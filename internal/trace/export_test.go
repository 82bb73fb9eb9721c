package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// decodeTE decodes an exported trace back into the generic structure
// the Chrome/Perfetto loaders read.
func decodeTE(t *testing.T, buf []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("export has no traceEvents array: %v", doc)
	}
	return doc
}

func TestExportPairsDrainsAndParks(t *testing.T) {
	events := []Event{
		{TS: 10 * time.Microsecond, Ring: 0, Kind: KindAcquire, Arg: 4},
		{TS: 15 * time.Microsecond, Ring: 1, Kind: KindPark},
		{TS: 30 * time.Microsecond, Ring: 0, Kind: KindRelease, Arg: 17},
		{TS: 45 * time.Microsecond, Ring: 1, Kind: KindUnpark},
		{TS: 50 * time.Microsecond, Ring: 0, Kind: KindSteal, Arg: PackPair(2, 1<<24|9)},
	}
	var buf bytes.Buffer
	if err := ExportEvents(&buf, events, []string{"sched-0", "sched-1"}); err != nil {
		t.Fatal(err)
	}
	doc := decodeTE(t, buf.Bytes())
	evs := doc["traceEvents"].([]any)

	var drains, parks, steals int
	for _, raw := range evs {
		e := raw.(map[string]any)
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		switch name {
		case "drain":
			drains++
			if ph != "X" {
				t.Fatalf("drain not paired into an X event: %v", e)
			}
			if dur := e["dur"].(float64); dur != 20 {
				t.Fatalf("drain dur = %v µs, want 20", dur)
			}
			args := e["args"].(map[string]any)
			if args["port"].(float64) != 4 || args["tuples"].(float64) != 17 {
				t.Fatalf("drain args = %v", args)
			}
		case "park":
			parks++
			if ph != "X" || e["dur"].(float64) != 30 {
				t.Fatalf("park not paired: %v", e)
			}
			if e["tid"].(float64) != 1 {
				t.Fatalf("park on tid %v, want 1", e["tid"])
			}
		case "steal":
			steals++
			args := e["args"].(map[string]any)
			// Exactly {victim, port}, the port using all 32 low bits.
			if len(args) != 2 || args["victim"].(float64) != 2 || args["port"].(float64) != 1<<24|9 {
				t.Fatalf("steal args = %v, want {victim: 2, port: %d}", args, 1<<24|9)
			}
		}
	}
	if drains != 1 || parks != 1 || steals != 1 {
		t.Fatalf("drains %d parks %d steals %d, want 1 each", drains, parks, steals)
	}
}

func TestExportUnpairedBeginBecomesInstant(t *testing.T) {
	events := []Event{
		{TS: 5 * time.Microsecond, Ring: 0, Kind: KindAcquire, Arg: 3},
		{TS: 7 * time.Microsecond, Ring: 2, Kind: KindPark},
	}
	var buf bytes.Buffer
	if err := ExportEvents(&buf, events, nil); err != nil {
		t.Fatal(err)
	}
	doc := decodeTE(t, buf.Bytes())
	found := 0
	for _, raw := range doc["traceEvents"].([]any) {
		e := raw.(map[string]any)
		if n := e["name"].(string); n == "drain" || n == "park" {
			if e["ph"].(string) != "i" {
				t.Fatalf("unpaired begin exported as %v", e)
			}
			found++
		}
	}
	if found != 2 {
		t.Fatalf("want 2 instants, got %d", found)
	}
}

func TestExportLiveTracer(t *testing.T) {
	tr := New(2, 64)
	tr.SetLabel(0, "sched-0")
	tr.SetLabel(1, "elastic")
	tr.Enable()
	tr.Emit(0, KindAcquire, 1)
	tr.Emit(0, KindRelease, 5)
	tr.Emit(1, KindElastic, PackPair(4, 123456))
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTE(t, buf.Bytes())
	var sawThreadName, sawElastic bool
	for _, raw := range doc["traceEvents"].([]any) {
		e := raw.(map[string]any)
		if e["name"] == "thread_name" {
			if args := e["args"].(map[string]any); args["name"] == "elastic" {
				sawThreadName = true
			}
		}
		if e["name"] == "elastic-level" {
			args := e["args"].(map[string]any)
			if args["level"].(float64) != 4 || args["throughput"].(float64) != 123456 {
				t.Fatalf("elastic args = %v", args)
			}
			sawElastic = true
		}
	}
	if !sawThreadName || !sawElastic {
		t.Fatalf("thread_name %v elastic %v", sawThreadName, sawElastic)
	}
}

func TestKindsTally(t *testing.T) {
	events := []Event{
		{Kind: KindSteal}, {Kind: KindSteal}, {Kind: KindPark},
	}
	got := Kinds(events)
	if got["steal"] != 2 || got["park"] != 1 {
		t.Fatalf("tally = %v", got)
	}
}

// TestKindRegistry walks every kind: its name is non-empty and unique,
// and a lone event of the kind exports exactly the args its schema
// declares, decoded from the packed word (a lone acquire or release
// exports as a drain instant, a lone park or unpark as a park instant).
func TestKindRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range AllKinds() {
		name := k.String()
		if name == "" || name == fmt.Sprintf("Kind(%d)", k) || seen[name] {
			t.Fatalf("kind %d: name %q is empty, a fallback or a duplicate", k, name)
		}
		seen[name] = true

		schema := k.Args()
		arg, want := int64(5), map[string]any{}
		switch len(schema) {
		case 1:
			want[schema[0].Name] = 5.0
		case 2:
			arg = PackPair(3, 7)
			want[schema[0].Name] = 3.0
			if e := schema[0].Enum; e != nil {
				want[schema[0].Name] = e[3]
			}
			want[schema[1].Name] = 7.0
		}
		var buf bytes.Buffer
		if err := ExportEvents(&buf, []Event{{Kind: k, Arg: arg}}, nil); err != nil {
			t.Fatal(err)
		}
		evs := decodeTE(t, buf.Bytes())["traceEvents"].([]any)
		e := evs[len(evs)-1].(map[string]any)
		got, _ := e["args"].(map[string]any)
		if got == nil {
			got = map[string]any{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: exported args %v, want %v", name, got, want)
		}
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown kind prints %q", got)
	}
}

func TestReasonNamesAreStable(t *testing.T) {
	for code, want := range []string{"depth", "budget", "lock", "occupied", "halt"} {
		if got := ChainStopReason(int32(code)); got != want {
			t.Errorf("ChainStopReason(%d) = %q, want %q", code, got, want)
		}
	}
	for code, want := range []string{"quarantine", "watchdog", "shutdown-deadline", "overload", "manual"} {
		if got := FlightRecReason(int32(code)); got != want {
			t.Errorf("FlightRecReason(%d) = %q, want %q", code, got, want)
		}
	}
	if got := ChainStopReason(9); got != "reason(9)" {
		t.Errorf("unknown chain-stop code prints %q", got)
	}
}
