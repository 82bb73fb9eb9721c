package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: streams/internal/sched
cpu: Intel(R) Xeon(R)
BenchmarkFreeListContention/global/threads=4/ports=16-8         	 9204813	        60.16 ns/op
BenchmarkFreeListContention/sharded/threads=4/ports=16-8        	 7238878	        43.16 ns/op
BenchmarkNativeModels/dynamic-8                                 	     100	    123456 ns/op	  512 B/op	       3 allocs/op
PASS
ok  	streams/internal/sched	7.844s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}

	r := results[0]
	if r.Name != "FreeListContention" || r.Variant != "global" {
		t.Fatalf("first result parsed as %+v", r)
	}
	if got := r.Params["threads"]; got != float64(4) {
		t.Fatalf("threads param = %v (%T), want 4", got, got)
	}
	if got := r.Params["ports"]; got != float64(16) {
		t.Fatalf("ports param = %v, want 16", got)
	}
	if r.Iterations != 9204813 || r.NsPerOp != 60.16 {
		t.Fatalf("measurements parsed as %+v", r)
	}

	if results[1].Variant != "sharded" || results[1].NsPerOp != 43.16 {
		t.Fatalf("second result parsed as %+v", results[1])
	}

	r = results[2]
	if r.Name != "NativeModels" || r.Variant != "dynamic" {
		t.Fatalf("third result parsed as %+v", r)
	}
	if r.Extra["B/op"] != 512 || r.Extra["allocs/op"] != 3 {
		t.Fatalf("extra measurements parsed as %+v", r.Extra)
	}
}

func TestParseSkipsNoise(t *testing.T) {
	results, err := Parse(strings.NewReader("PASS\nok\nrandom text\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from noise, want 0", len(results))
	}
}

func TestParseBadLine(t *testing.T) {
	_, err := Parse(strings.NewReader("BenchmarkX notanumber 5 ns/op\n"))
	if err == nil {
		t.Fatal("malformed benchmark line did not error")
	}
}
