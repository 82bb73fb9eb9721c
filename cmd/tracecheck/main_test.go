package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streams/internal/trace"
)

func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckValid(t *testing.T) {
	p := writeFile(t, "ok.json", `{"traceEvents":[
		{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"x"}},
		{"name":"drain","ph":"X","ts":1.5,"dur":2.0,"pid":1,"tid":0,"args":{"port":4,"tuples":32}},
		{"name":"drain","ph":"i","ts":4.0,"pid":1,"tid":0,"s":"t","args":{"port":4}},
		{"name":"steal","ph":"i","ts":3.0,"pid":1,"tid":1,"s":"t","args":{"victim":0,"port":4}}
	]}`)
	if err := check(p, []string{"steal", "drain"}, false); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRequireMissing(t *testing.T) {
	p := writeFile(t, "m.json", `{"traceEvents":[
		{"name":"steal","ph":"i","ts":1,"pid":1,"tid":0,"args":{"victim":1,"port":2}}
	]}`)
	err := check(p, []string{"steal", "park"}, false)
	if err == nil || !strings.Contains(err.Error(), "park") {
		t.Fatalf("err = %v, want missing park", err)
	}
}

func TestCheckMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":    `{`,
		"no array":    `{"displayTimeUnit":"ms"}`,
		"no name":     `{"traceEvents":[{"ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"bad phase":   `{"traceEvents":[{"name":"a","ph":"Z","ts":1,"pid":1,"tid":0}]}`,
		"no pid":      `{"traceEvents":[{"name":"a","ph":"i","ts":1,"tid":0}]}`,
		"negative ts": `{"traceEvents":[{"name":"a","ph":"i","ts":-1,"pid":1,"tid":0}]}`,
		"X no dur":    `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":0}]}`,

		// A drain span carries its port and tuple count; a drain instant
		// (half a pair) at least one of them.
		"drain no tuples":    `{"traceEvents":[{"name":"drain","ph":"X","ts":1,"dur":1,"pid":1,"tid":0,"args":{"port":2}}]}`,
		"drain instant bare": `{"traceEvents":[{"name":"drain","ph":"i","ts":1,"pid":1,"tid":0}]}`,

		// Inline-chain instants carry a validated payload: a chain link
		// needs a 1-based depth, a chain-stop a known fall-back reason.
		"chain no args":      `{"traceEvents":[{"name":"chain","ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"chain depth 0":      `{"traceEvents":[{"name":"chain","ph":"i","ts":1,"pid":1,"tid":0,"args":{"depth":0,"port":2}}]}`,
		"chain no port":      `{"traceEvents":[{"name":"chain","ph":"i","ts":1,"pid":1,"tid":0,"args":{"depth":1}}]}`,
		"chain bad depth":    `{"traceEvents":[{"name":"chain","ph":"i","ts":1,"pid":1,"tid":0,"args":{"depth":"x","port":2}}]}`,
		"stop no reason":     `{"traceEvents":[{"name":"chain-stop","ph":"i","ts":1,"pid":1,"tid":0,"args":{"port":2}}]}`,
		"stop bad reason":    `{"traceEvents":[{"name":"chain-stop","ph":"i","ts":1,"pid":1,"tid":0,"args":{"reason":"tired","port":2}}]}`,
		"stop numeric code":  `{"traceEvents":[{"name":"chain-stop","ph":"i","ts":1,"pid":1,"tid":0,"args":{"reason":3,"port":2}}]}`,
		"stop negative port": `{"traceEvents":[{"name":"chain-stop","ph":"i","ts":1,"pid":1,"tid":0,"args":{"reason":"lock","port":-1}}]}`,

		// A steal carries a typed payload too: its victim and port.
		"steal no args":   `{"traceEvents":[{"name":"steal","ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"steal no port":   `{"traceEvents":[{"name":"steal","ph":"i","ts":1,"pid":1,"tid":0,"args":{"victim":1}}]}`,
		"steal no victim": `{"traceEvents":[{"name":"steal","ph":"i","ts":1,"pid":1,"tid":0,"args":{"port":2}}]}`,
	}
	for label, body := range cases {
		p := writeFile(t, "bad.json", body)
		if err := check(p, nil, false); err == nil {
			t.Errorf("%s: check accepted malformed input", label)
		}
	}
}

// TestCheckAcceptsExport feeds tracecheck a real tracer export so the
// validator and the exporter cannot drift.
func TestCheckAcceptsExport(t *testing.T) {
	tr := trace.New(2, 16)
	tr.SetLabel(0, "sched-0")
	tr.Enable()
	tr.Emit(0, trace.KindAcquire, 3)
	tr.Emit(0, trace.KindRelease, 7)
	tr.Emit(0, trace.KindSteal, trace.PackPair(1, 3))
	tr.Emit(1, trace.KindPark, 0)
	tr.Emit(1, trace.KindUnpark, 0)
	tr.Emit(1, trace.KindElastic, trace.PackPair(2, 1000))
	tr.Emit(0, trace.KindChain, trace.PackPair(1, 5))
	tr.Emit(0, trace.KindChain, trace.PackPair(2, 6))
	tr.Emit(0, trace.KindChainStop, trace.PackPair(trace.ChainStopOccupied, 6))
	tr.Emit(1, trace.KindBPSample, trace.PackPair(3, 57))
	tr.Emit(1, trace.KindBPSample, trace.PackPair(-1, 0))
	tr.Emit(1, trace.KindFlightRec, trace.PackPair(trace.FlightRecQuarantine, 12))

	var sb strings.Builder
	if err := tr.Export(&sb); err != nil {
		t.Fatal(err)
	}
	// A steal instant is {victim, port} and nothing else (encoding/json
	// writes map keys sorted).
	if !strings.Contains(sb.String(), `"args":{"port":3,"victim":1}`) {
		t.Fatalf("steal instant is not {victim: 1, port: 3}:\n%s", sb.String())
	}
	// Strict mode on a real export: the exporter may only emit kinds the
	// checker knows, so adding a kind without a schema breaks here.
	p := writeFile(t, "export.json", sb.String())
	if err := check(p, []string{"drain", "steal", "park", "elastic-level", "chain", "chain-stop", "bp-sample", "flightrec-dump"}, true); err != nil {
		t.Fatal(err)
	}
}

// TestCheckChainArgsValid accepts the exact payloads the exporter
// writes for every chain-stop reason.
func TestCheckChainArgsValid(t *testing.T) {
	p := writeFile(t, "chain.json", `{"traceEvents":[
		{"name":"chain","ph":"i","ts":1,"pid":1,"tid":0,"args":{"depth":1,"port":0}},
		{"name":"chain","ph":"i","ts":2,"pid":1,"tid":0,"args":{"depth":8,"port":41}},
		{"name":"chain-stop","ph":"i","ts":3,"pid":1,"tid":0,"args":{"reason":"depth","port":3}},
		{"name":"chain-stop","ph":"i","ts":4,"pid":1,"tid":0,"args":{"reason":"budget","port":3}},
		{"name":"chain-stop","ph":"i","ts":5,"pid":1,"tid":0,"args":{"reason":"lock","port":3}},
		{"name":"chain-stop","ph":"i","ts":6,"pid":1,"tid":0,"args":{"reason":"occupied","port":3}},
		{"name":"chain-stop","ph":"i","ts":7,"pid":1,"tid":0,"args":{"reason":"halt","port":3}}
	]}`)
	if err := check(p, []string{"chain", "chain-stop"}, false); err != nil {
		t.Fatal(err)
	}
}

// TestCheckObsArgs pins the flow-observability instants' schemas: a
// bp-sample carries a port (-1 when all queues were empty) and a
// non-negative occupancy, a flightrec-dump a known trigger name and a
// sample count.
func TestCheckObsArgs(t *testing.T) {
	p := writeFile(t, "obs.json", `{"traceEvents":[
		{"name":"bp-sample","ph":"i","ts":1,"pid":1,"tid":0,"args":{"port":3,"occ":57}},
		{"name":"bp-sample","ph":"i","ts":2,"pid":1,"tid":0,"args":{"port":-1,"occ":0}},
		{"name":"flightrec-dump","ph":"i","ts":3,"pid":1,"tid":0,"args":{"reason":"quarantine","samples":12}},
		{"name":"flightrec-dump","ph":"i","ts":4,"pid":1,"tid":0,"args":{"reason":"shutdown-deadline","samples":0}}
	]}`)
	if err := check(p, []string{"bp-sample", "flightrec-dump"}, true); err != nil {
		t.Fatal(err)
	}

	bad := map[string]string{
		"bp no occ":      `{"traceEvents":[{"name":"bp-sample","ph":"i","ts":1,"pid":1,"tid":0,"args":{"port":3}}]}`,
		"bp port -2":     `{"traceEvents":[{"name":"bp-sample","ph":"i","ts":1,"pid":1,"tid":0,"args":{"port":-2,"occ":1}}]}`,
		"fr no reason":   `{"traceEvents":[{"name":"flightrec-dump","ph":"i","ts":1,"pid":1,"tid":0,"args":{"samples":3}}]}`,
		"fr bad reason":  `{"traceEvents":[{"name":"flightrec-dump","ph":"i","ts":1,"pid":1,"tid":0,"args":{"reason":"vibes","samples":3}}]}`,
		"fr code reason": `{"traceEvents":[{"name":"flightrec-dump","ph":"i","ts":1,"pid":1,"tid":0,"args":{"reason":2,"samples":3}}]}`,
		"fr neg samples": `{"traceEvents":[{"name":"flightrec-dump","ph":"i","ts":1,"pid":1,"tid":0,"args":{"reason":"manual","samples":-1}}]}`,
	}
	for label, body := range bad {
		p := writeFile(t, "bad.json", body)
		if err := check(p, nil, false); err == nil {
			t.Errorf("%s: check accepted malformed input", label)
		}
	}
}

// TestCheckStrict: unknown event kinds pass by default (forward
// compatibility for hand-made traces) but fail under -strict.
func TestCheckStrict(t *testing.T) {
	p := writeFile(t, "unk.json", `{"traceEvents":[
		{"name":"mystery-event","ph":"i","ts":1,"pid":1,"tid":0}
	]}`)
	if err := check(p, nil, false); err != nil {
		t.Fatalf("lenient mode rejected unknown kind: %v", err)
	}
	err := check(p, nil, true)
	if err == nil || !strings.Contains(err.Error(), "mystery-event") {
		t.Fatalf("err = %v, want strict failure naming mystery-event", err)
	}
}

// TestCheckRegistrySchema builds one event per trace kind from the
// registry, with every argument at its least valid value, exports it,
// and requires -strict to accept it. It then corrupts each exported arg
// in turn — below its minimum, the wrong JSON type, an unknown reason —
// and requires every corruption to be rejected, so no kind's args pass
// unchecked.
func TestCheckRegistrySchema(t *testing.T) {
	least := func(a trace.Arg) int64 {
		if a.Enum != nil {
			return 0
		}
		return a.Min
	}
	for _, k := range trace.AllKinds() {
		var arg int64
		switch as := k.Args(); len(as) {
		case 1:
			arg = least(as[0])
		case 2:
			arg = trace.PackPair(int32(least(as[0])), uint32(least(as[1])))
		}
		var sb strings.Builder
		if err := trace.ExportEvents(&sb, []trace.Event{{Kind: k, Arg: arg}}, nil); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
			t.Fatal(err)
		}
		if err := check(writeFile(t, "ok.json", sb.String()), nil, true); err != nil {
			t.Errorf("%s: exported event rejected: %v", k, err)
			continue
		}

		ev := doc.TraceEvents[len(doc.TraceEvents)-1]
		args, _ := ev["args"].(map[string]any)
		if len(args) != len(k.Args()) {
			t.Errorf("%s: exported %d args, schema has %d", k, len(args), len(k.Args()))
		}
		for _, a := range k.Args() {
			bad := map[string]any{"below minimum": a.Min - 1, "wrong type": "x"}
			if a.Enum != nil {
				bad = map[string]any{"wrong type": 0, "unknown reason": "bogus"}
			}
			for what, v := range bad {
				orig := args[a.Name]
				args[a.Name] = v
				body, err := json.Marshal(doc)
				args[a.Name] = orig
				if err != nil {
					t.Fatal(err)
				}
				if check(writeFile(t, "bad.json", string(body)), nil, true) == nil {
					t.Errorf("%s: %s %q = %v accepted", k, what, a.Name, v)
				}
			}
		}
	}
}
