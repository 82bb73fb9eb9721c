// Command benchjson converts `go test -bench` text output on stdin into
// a JSON array on stdout, one object per benchmark result line. Sub-
// benchmark path segments of the form key=value become fields, so
//
//	BenchmarkFreeListContention/sharded/threads=4/ports=16  7238878  43.16 ns/op
//
// becomes
//
//	{"name":"FreeListContention","variant":"sharded","params":{"threads":4,"ports":16},
//	 "iterations":7238878,"ns_per_op":43.16}
//
// The experiment harness uses it to archive contention sweeps in a form
// plotting scripts can consume without re-parsing bench text.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark function name without the Benchmark prefix
	// or the -N GOMAXPROCS suffix.
	Name string `json:"name"`
	// Variant collects the sub-benchmark path segments that are not
	// key=value pairs, joined with "/" ("" when there are none).
	Variant string `json:"variant,omitempty"`
	// Params holds the key=value path segments. Values that parse as
	// numbers are numbers; the rest stay strings.
	Params     map[string]any `json:"params,omitempty"`
	Iterations int64          `json:"iterations"`
	NsPerOp    float64        `json:"ns_per_op"`
	// Extra captures any further "value unit" measurement pairs
	// (B/op, allocs/op, custom ReportMetric units) keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	flag.Parse() // no flags: anything passed is rejected as unknown
	results, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// Parse reads go-test bench output and returns the benchmark results in
// order of appearance. Non-benchmark lines (PASS, ok, goos, ...) are
// skipped.
func Parse(r io.Reader) ([]Result, error) {
	results := []Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		res, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			results = append(results, res)
		}
	}
	return results, sc.Err()
}

func parseLine(line string) (Result, bool, error) {
	fields := splitFields(line)
	if len(fields) < 3 || len(fields[0]) <= len("Benchmark") || fields[0][:len("Benchmark")] != "Benchmark" {
		return Result{}, false, nil
	}
	full := fields[0][len("Benchmark"):]
	// Strip the trailing -N GOMAXPROCS marker from the last segment.
	if i := lastIndexByte(full, '-'); i > 0 && allDigits(full[i+1:]) {
		full = full[:i]
	}
	segs := splitPath(full)
	res := Result{Name: segs[0]}
	for _, seg := range segs[1:] {
		if k, v, ok := cutEq(seg); ok {
			if res.Params == nil {
				res.Params = map[string]any{}
			}
			res.Params[k] = numberOrString(v)
			continue
		}
		if res.Variant != "" {
			res.Variant += "/"
		}
		res.Variant += seg
	}
	var err error
	if _, err = fmt.Sscanf(fields[1], "%d", &res.Iterations); err != nil {
		return Result{}, false, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	// The remaining fields come in "value unit" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err = fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return Result{}, false, fmt.Errorf("bad measurement in %q: %v", line, err)
		}
		if fields[i+1] == "ns/op" {
			res.NsPerOp = v
			continue
		}
		if res.Extra == nil {
			res.Extra = map[string]float64{}
		}
		res.Extra[fields[i+1]] = v
	}
	return res, true, nil
}

func splitFields(s string) []string {
	var out []string
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		j := i
		for j < len(s) && s[j] != ' ' && s[j] != '\t' {
			j++
		}
		if j > i {
			out = append(out, s[i:j])
		}
		i = j
	}
	return out
}

func splitPath(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '/' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func cutEq(s string) (k, v string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '=' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func numberOrString(s string) any {
	var n float64
	if _, err := fmt.Sscanf(s, "%g", &n); err == nil {
		// Reject partial parses like "4x" by re-checking the round trip
		// for plain integers; Sscanf stops at the first bad byte.
		var tail string
		if c, _ := fmt.Sscanf(s, "%g%s", &n, &tail); c == 1 {
			return n
		}
	}
	return s
}
