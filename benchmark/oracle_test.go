package main

import (
	"strings"
	"testing"

	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/pe"
)

// Negative tests: every oracle is shown a run that is wrong in exactly
// one record or count and must report failed tuples, which is what makes
// the process exit non-zero.

func TestIncorrectRunExitsNonZero(t *testing.T) {
	if c := (&report{Correct: true}).exitCode(); c != 0 {
		t.Errorf("correct run exits %d", c)
	}
	if c := (&report{Failed: 1}).exitCode(); c == 0 {
		t.Error("a run with a failed tuple exits 0")
	}
}

// trialFailed runs one real trial of w and returns the oracle's count.
func trialFailed(t *testing.T, w closedWorkload) uint64 {
	t.Helper()
	tr, err := runTrial(w, pe.Dynamic, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr.failed
}

func TestLoginsOracle(t *testing.T) {
	w := newLoginsWorkload(3, 3000)
	if w.want.count == 0 || w.want.count == uint64(w.lines) {
		t.Fatalf("reference keeps %d of %d lines; the filter is not exercised", w.want.count, w.lines)
	}
	if n := trialFailed(t, w); n != 0 {
		t.Fatalf("unmodified run: oracle reports %d failed records", n)
	}

	// One record of the reference altered in one byte: same count,
	// different multiset.
	recs := referenceFailures(w.log)
	recs[len(recs)/2] = strings.Replace(recs[len(recs)/2], "ssh", "ssx", 1)
	altered := *w
	altered.want = lineDigest{}
	for _, r := range recs {
		altered.want.addLine(r)
	}
	if n := trialFailed(t, &altered); n == 0 {
		t.Error("oracle accepted a run that differs from the reference in one record")
	}

	// One record lost, one duplicated.
	for name, recs := range map[string][]string{"lost": recs[1:], "duplicated": append(recs[:1:1], recs...)} {
		var d lineDigest
		for _, r := range recs {
			d.addLine(r)
		}
		if w.want.diff(d) == 0 {
			t.Errorf("digest accepts a %s record", name)
		}
	}
}

func TestDigestWriterChunking(t *testing.T) {
	var want lineDigest
	lines := []string{"a,b,c", "", "10 03:04:05,0,0,ssh,198.51.100.7,invader1"}
	for _, l := range lines {
		want.addLine(l)
	}
	text := strings.Join(lines, "\n") + "\n"
	for chunk := 1; chunk <= len(text); chunk++ {
		w := &digestWriter{sink: newProgress(uint64(len(lines)))}
		for i := 0; i < len(text); i += chunk {
			if _, err := w.Write([]byte(text[i:min(i+chunk, len(text))])); err != nil {
				t.Fatal(err)
			}
		}
		if want.diff(w.lineDigest) != 0 {
			t.Fatalf("chunk size %d: digest %+v, want %+v", chunk, w.lineDigest, want)
		}
	}
}

func TestChainOracle(t *testing.T) {
	w := newChainWorkload(5, 20_000)
	if w.wantCount == 0 || w.wantCount == uint64(w.iterations) {
		t.Fatalf("reference keeps %d of %d tuples; the filter is not exercised", w.wantCount, w.iterations)
	}
	if n := trialFailed(t, w); n != 0 {
		t.Fatalf("unmodified run: oracle reports %d failed tuples", n)
	}
	sum := *w
	sum.wantSum++
	if n := trialFailed(t, &sum); n == 0 {
		t.Error("oracle accepted a sum that is off by one")
	}
	count := *w
	count.wantCount--
	if n := trialFailed(t, &count); n == 0 {
		t.Error("oracle accepted a count that is off by one")
	}
}

func TestFanoutOracle(t *testing.T) {
	w := newFanoutWorkload(7, 40_000)
	if n := trialFailed(t, w); n != 0 {
		t.Fatalf("unmodified run: oracle reports %d failed tuples", n)
	}
	sum := *w
	sum.wantSum ^= 1
	if n := trialFailed(t, &sum); n == 0 {
		t.Error("oracle accepted a payload sum that differs in one bit")
	}
}

func TestFIFOCheck(t *testing.T) {
	feed := func(lossless bool, counters ...uint64) *fifoCheck {
		f := &fifoCheck{lossless: lossless}
		for _, c := range counters {
			f.see(c)
		}
		return f
	}
	for _, c := range []struct {
		name     string
		f        *fifoCheck
		sent     uint64
		failures uint64
	}{
		{"in order", feed(true, 0, 1, 2, 3), 4, 0},
		{"duplicate", feed(true, 0, 1, 1, 2, 3), 4, 1},
		{"reordered", feed(true, 0, 2, 1, 3), 4, 2}, // the gap at 1, then 1 arriving late
		{"lost in the middle", feed(true, 0, 1, 3), 4, 1},
		{"lost tail", feed(true, 0, 1, 2), 4, 1},
		{"policed connection may skip", feed(false, 0, 5, 9), 12, 0},
		{"policed connection may not reorder", feed(false, 0, 9, 5), 12, 1},
	} {
		if got := c.f.failures(c.sent); got != c.failures {
			t.Errorf("%s: %d failures, want %d", c.name, got, c.failures)
		}
	}
}

// TestConservationCheck corrupts one disposition count of an otherwise
// consistent overload run.
func TestConservationCheck(t *testing.T) {
	w := overloadWorkload(1)
	const run = 10 // seconds
	gold, offered := uint64(goldOffered*run), uint64(bronzeOffer*run)
	bronze := uint64(contractRate * run)
	consistent := func() (*openResult, uint64) {
		res := &openResult{sink: &sinkState{fifo: []fifoCheck{{lossless: true}, {}}}}
		res.gens = []*generator{{sent: gold, end: run * 1e9}, {sent: offered, end: run * 1e9}}
		for i := uint64(0); i < gold; i++ {
			res.sink.fifo[0].see(i)
		}
		for i := uint64(0); i < bronze; i++ {
			res.sink.fifo[1].see(3 * i)
		}
		const shed = 1000
		throttled := offered - bronze - shed
		res.final = ingest.Snapshot{
			Totals: metrics.IngestSnapshot{Admitted: gold + bronze, Throttled: throttled, Shed: shed},
			Tenants: []ingest.TenantSnapshot{
				{Name: "gold", Admitted: gold},
				{Name: "bronze", Admitted: bronze, Throttled: throttled, Shed: shed},
			},
		}
		return res, gold + bronze
	}

	res, sink := consistent()
	if w.check(res, sink); res.failed != 0 {
		t.Fatalf("consistent run: %d failed (%v)", res.failed, res.notes)
	}
	if res.owed != sink {
		t.Errorf("owed %d, want %d", res.owed, sink)
	}

	res, sink = consistent()
	res.final.Tenants[1].Shed-- // one tuple unaccounted for
	if w.check(res, sink); res.failed == 0 {
		t.Error("check accepted admitted+shed+throttled+rejected != sent")
	}

	res, sink = consistent()
	if w.check(res, sink-1); res.failed == 0 {
		t.Error("check accepted a sink that delivered one tuple fewer than was admitted")
	}

	res, sink = consistent()
	leak := bronze / 5 // a leaking bucket
	res.final.Tenants[1].Admitted += leak
	res.final.Tenants[1].Throttled -= leak
	res.final.Totals.Admitted += leak
	if w.check(res, sink+leak); res.failed == 0 {
		t.Error("check accepted a bronze tenant admitted 20% over its contract")
	}
}
