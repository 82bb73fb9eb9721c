package streams_test

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"streams"
)

func pipeline(t *testing.T, limit uint64, depth int) (*streams.Topology, *streams.Sink) {
	t.Helper()
	top := streams.NewTopology()
	src := top.Add(&streams.Generator{Limit: limit}, 0, 1)
	prev := src
	for i := 0; i < depth; i++ {
		w := top.Add(&streams.Worker{Cost: 10}, 1, 1)
		top.Connect(prev, 0, w, 0)
		prev = w
	}
	snk := &streams.Sink{}
	out := top.Add(snk, 1, 0)
	top.Connect(prev, 0, out, 0)
	return top, snk
}

func TestRunDefaultsToDynamic(t *testing.T) {
	top, snk := pipeline(t, 5000, 5)
	job, err := streams.Run(top, streams.RunConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	if snk.Count() != 5000 {
		t.Fatalf("sink saw %d", snk.Count())
	}
	if job.SinkDelivered() != 5000 {
		t.Fatalf("SinkDelivered = %d", job.SinkDelivered())
	}
	if job.Executed() != 5000*6 {
		t.Fatalf("Executed = %d", job.Executed())
	}
}

func TestRunAllModels(t *testing.T) {
	for _, m := range []streams.Model{streams.ModelManual, streams.ModelDedicated, streams.ModelDynamic} {
		top, snk := pipeline(t, 2000, 3)
		job, err := streams.Run(top, streams.RunConfig{Model: m, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		job.Wait()
		if snk.Count() != 2000 {
			t.Fatalf("%v: sink saw %d", m, snk.Count())
		}
	}
}

// TestBadQueueCapIsAnError: a queue capacity the queues cannot take is
// a configuration error under every model and through every entry
// point, never a panic.
func TestBadQueueCapIsAnError(t *testing.T) {
	for _, m := range []streams.Model{streams.ModelManual, streams.ModelDedicated, streams.ModelDynamic} {
		for _, qcap := range []int{48, 3, -4} {
			cfg := streams.RunConfig{Model: m, Threads: 2, QueueCap: qcap}
			top, _ := pipeline(t, 10, 2)
			g, err := top.Build()
			if err != nil {
				t.Fatal(err)
			}
			if job, err := streams.RunGraph(g, cfg); err == nil {
				job.Stop()
				t.Errorf("%v: RunGraph accepted QueueCap %d", m, qcap)
			}
			top, _ = pipeline(t, 10, 2)
			if _, err := streams.Deploy(top, 2, cfg); err == nil {
				t.Errorf("%v: Deploy accepted QueueCap %d", m, qcap)
			}
		}
	}
}

func TestTopologyBuildOnce(t *testing.T) {
	top, _ := pipeline(t, 1, 1)
	if _, err := top.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := top.Build(); err == nil {
		t.Fatal("second Build accepted")
	}
}

func TestRunRejectsBadTopology(t *testing.T) {
	top := streams.NewTopology()
	top.Add(&streams.Generator{}, 0, 1) // dangling output
	if _, err := streams.Run(top, streams.RunConfig{}); err == nil {
		t.Fatal("bad topology accepted")
	}
}

func TestJobStopUnbounded(t *testing.T) {
	top, snk := pipeline(t, 0, 3)
	job, err := streams.Run(top, streams.RunConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for snk.Count() < 100 {
		if time.Now().After(deadline) {
			t.Fatal("no flow")
		}
		time.Sleep(time.Millisecond)
	}
	job.Stop()
	select {
	case <-job.Done():
	default:
		t.Fatal("Done not closed after Stop")
	}
}

func TestElasticTraceCallback(t *testing.T) {
	top, _ := pipeline(t, 0, 4)
	var mu sync.Mutex
	n := 0
	job, err := streams.Run(top, streams.RunConfig{
		Elastic:     true,
		MaxThreads:  2,
		AdaptPeriod: 20 * time.Millisecond,
		CPUUsage:    func() (float64, error) { return 0.1, nil },
		Trace: func(s streams.Sample) {
			mu.Lock()
			n++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		enough := n >= 3
		mu.Unlock()
		if enough {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no trace samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
	job.Stop()
	if job.Level() < 1 {
		t.Fatalf("Level = %d", job.Level())
	}
}

func TestNewDataHelper(t *testing.T) {
	tp := streams.NewData(7, 8)
	if tp.Words[0] != 7 || tp.Words[1] != 8 {
		t.Fatalf("NewData payload %v", tp.Words)
	}
}

const apiSPL = `
@threading(model=manual)
composite Main {
  graph
    stream<int64 i> N = Beacon() { param iterations: 100; }
    stream<int64 i> E = Filter(N) { param filter: i % 2 == 0; }
    () as Out = FileSink(E) { param file: "evens"; }
}
`

type discardCloser struct{ strings.Builder }

func (d *discardCloser) Close() error { return nil }

func TestCompileSPLAndRun(t *testing.T) {
	prog, err := streams.CompileSPL(apiSPL, streams.SPLOptions{
		WriterFor: func(string) (io.WriteCloser, error) { return &discardCloser{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	model, threads, ok := prog.Threading()
	if !ok || model != streams.ModelManual || threads != 0 {
		t.Fatalf("Threading() = %v, %d, %v", model, threads, ok)
	}
	if prog.Graph() == nil {
		t.Fatal("nil graph")
	}
	job, err := prog.Run(streams.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	if got := prog.SinkCounts()["Out"]; got != 50 {
		t.Fatalf("SPL sink wrote %d, want 50", got)
	}
}

func TestCompileSPLError(t *testing.T) {
	if _, err := streams.CompileSPL("not spl", streams.SPLOptions{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDeployAcrossPEs(t *testing.T) {
	const n = 6000
	top, snk := pipeline(t, n, 8)
	d, err := streams.Deploy(top, 3, streams.RunConfig{Threads: 2, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.PEs() != 3 {
		t.Fatalf("PEs() = %d, want 3", d.PEs())
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { d.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deployment did not drain")
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != n {
		t.Fatalf("sink saw %d of %d tuples", snk.Count(), n)
	}
}
