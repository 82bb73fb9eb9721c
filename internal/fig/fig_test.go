package fig

import (
	"strings"
	"testing"
	"time"

	"streams/internal/pe"
	"streams/internal/sim"
)

func TestPanelEnumeration(t *testing.T) {
	if n := len(Fig9Pipeline()); n != 6 {
		t.Fatalf("Fig9Pipeline has %d panels, want 6", n)
	}
	if n := len(Fig9DataParallel()); n != 6 {
		t.Fatalf("Fig9DataParallel has %d panels, want 6", n)
	}
	if n := len(Fig10()); n != 6 {
		t.Fatalf("Fig10 has %d panels, want 6", n)
	}
	if n := len(Fig11()); n != 6 {
		t.Fatalf("Fig11 has %d panels, want 6", n)
	}
	all := AllPanels()
	if len(all) != 24 {
		t.Fatalf("AllPanels has %d panels, want 24", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.ID] {
			t.Fatalf("duplicate panel ID %q", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestFindPanel(t *testing.T) {
	p, ok := FindPanel("fig10-xeon-cost1000")
	if !ok {
		t.Fatal("known panel not found")
	}
	if p.Work.Width != 10 || p.Work.Depth != 100 || p.Work.Cost != 1000 {
		t.Fatalf("panel workload %+v", p.Work)
	}
	if _, ok := FindPanel("nope"); ok {
		t.Fatal("unknown panel found")
	}
}

func TestRunStaticSeries(t *testing.T) {
	p, _ := FindPanel("fig9-pipeline-xeon-cost1")
	r := RunStatic(p, 3)
	if len(r.Threads) != len(r.Dynamic) || len(r.Threads) < 10 {
		t.Fatalf("sweep sizes: %d threads, %d values", len(r.Threads), len(r.Dynamic))
	}
	if r.Manual <= 0 || r.Dedicated <= 0 || r.ElasticMean <= 0 {
		t.Fatal("non-positive series values")
	}
	// The §5.1 ordering must be visible in the rendered panel.
	_, best := r.BestStatic()
	if !(r.Dedicated > best && best > r.Manual) {
		t.Fatalf("ordering broken: ded %.3g, best dyn %.3g, manual %.3g", r.Dedicated, best, r.Manual)
	}
	if r.ElasticLo < 1 || r.ElasticHi < r.ElasticLo {
		t.Fatalf("elastic band [%d, %d]", r.ElasticLo, r.ElasticHi)
	}
	// Elastic must land within 25% of the best static sweep point.
	if r.ElasticMean < 0.75*best {
		t.Fatalf("elastic mean %.3g below 75%% of best static %.3g", r.ElasticMean, best)
	}
	tbl := r.Table()
	for _, want := range []string{"manual", "dedicated", "dynamic static", "dynamic elastic", "settles"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestTraceTable(t *testing.T) {
	p := Fig11()[0]
	mo := sim.Model{M: p.Machine, W: p.Work}
	trace := sim.RunElastic(mo, sim.ElasticConfig{Seed: 1, DurationSec: 200})
	tbl := TraceTable(p, trace, 2)
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	// Header (2) + every other of 20 points.
	if len(lines) != 2+10 {
		t.Fatalf("trace table has %d lines:\n%s", len(lines), tbl)
	}
	if !strings.Contains(tbl, "threads") {
		t.Fatalf("missing header:\n%s", tbl)
	}
}

func TestRunNativeSmallWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("native run in -short mode")
	}
	for _, model := range []pe.Model{pe.Manual, pe.Dynamic} {
		res, err := RunNative(sim.Workload{Width: 2, Depth: 5, Cost: 10},
			NativeConfig{Model: model, Threads: 2, Duration: 300 * time.Millisecond})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.Throughput <= 0 {
			t.Fatalf("%v: non-positive native throughput %g", model, res.Throughput)
		}
	}
}

// TestRunNativeAdaptiveAblations exercises the scheduler knobs through
// the same path the streamsim flags take (-elastic): each
// configuration must run the native workload to positive throughput.
func TestRunNativeAdaptiveAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("native run in -short mode")
	}
	cases := []struct {
		name string
		cfg  NativeConfig
	}{
		{"elastic", NativeConfig{Model: pe.Dynamic, Threads: 2, Elastic: true, MaxThreads: 3, AdaptPeriod: 50 * time.Millisecond}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Duration = 300 * time.Millisecond
			res, err := RunNative(sim.Workload{Width: 3, Depth: 4, Cost: 10}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Throughput <= 0 {
				t.Fatalf("non-positive native throughput %g", res.Throughput)
			}
		})
	}
}

func TestSortPanelsByID(t *testing.T) {
	ps := AllPanels()
	SortPanelsByID(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i-1].ID >= ps[i].ID {
			t.Fatalf("not sorted at %d: %q >= %q", i, ps[i-1].ID, ps[i].ID)
		}
	}
}
