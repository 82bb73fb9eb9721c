package pe

import (
	"slices"
	"sync"
	"testing"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// winSource emits alternating data tuples and window punctuation.
type winSource struct{ n int }

func (w *winSource) Name() string                              { return "winSrc" }
func (w *winSource) Process(graph.Submitter, tuple.Tuple, int) {}
func (w *winSource) Run(out graph.Submitter, stop <-chan struct{}) {
	for i := 0; i < w.n; i++ {
		select {
		case <-stop:
			return
		default:
		}
		out.Submit(tuple.NewData(uint64(i)), 0)
		out.Submit(tuple.Window(), 0)
	}
}

// punctCounter observes punctuation and forwards data.
type punctCounter struct {
	mu      sync.Mutex
	windows int
	finals  int
}

func (p *punctCounter) Name() string { return "punctCounter" }
func (p *punctCounter) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	out.Submit(t, 0)
}
func (p *punctCounter) OnPunct(_ graph.Submitter, k tuple.Kind, _ int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch k {
	case tuple.WindowMark:
		p.windows++
	case tuple.FinalMark:
		p.finals++
	}
}

func (p *punctCounter) counts() (int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.windows, p.finals
}

// TestPunctuationAcrossModels verifies window and final punctuation are
// forwarded and observable under all three threading models — the fused
// and dedicated punctuation paths are separate code from the scheduler's.
func TestPunctuationAcrossModels(t *testing.T) {
	const n = 200
	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			b := graph.NewBuilder()
			src := b.AddNode(&winSource{n: n}, 0, 1)
			pc := &punctCounter{}
			mid := b.AddNode(pc, 1, 1)
			snk := &ops.Sink{}
			sn := b.AddNode(snk, 1, 0)
			b.Connect(src, 0, mid, 0)
			b.Connect(mid, 0, sn, 0)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(g, Config{Model: model, Threads: 2, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			p.Wait()
			if got := snk.Count(); got != n {
				t.Fatalf("%v: sink saw %d data tuples", model, got)
			}
			w, f := pc.counts()
			if w != n {
				t.Fatalf("%v: observed %d window punctuations, want %d", model, w, n)
			}
			if f != 1 {
				t.Fatalf("%v: observed %d final punctuations, want 1", model, f)
			}
		})
	}
}

// TestOperatorCounts verifies the per-operator metrics under every
// threading model: each stage of a pipeline executes every tuple exactly
// once, and the per-node counts agree with the per-name ones.
func TestOperatorCounts(t *testing.T) {
	const n = 3000
	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		t.Run(model.String(), func(t *testing.T) {
			b := graph.NewBuilder()
			src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
			w1 := b.AddNode(&ops.Worker{OpName: "stage1"}, 1, 1)
			w2 := b.AddNode(&ops.Worker{OpName: "stage2"}, 1, 1)
			snk := b.AddNode(&ops.Sink{}, 1, 0)
			b.Connect(src, 0, w1, 0)
			b.Connect(w1, 0, w2, 0)
			b.Connect(w2, 0, snk, 0)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(g, Config{Model: model, Threads: 2, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			runToDrain(t, p)
			counts := p.OperatorCounts()
			for _, name := range []string{"stage1", "stage2", "Snk"} {
				if counts[name] != n {
					t.Errorf("operator %q executed %d tuples, want %d (all: %v)", name, counts[name], n, counts)
				}
			}
			exec := make([]uint64, p.NumNodes())
			if !p.NodeExecuted(exec) {
				t.Fatal("NodeExecuted reported no per-node meters")
			}
			if want := []uint64{0, n, n, n}; !slices.Equal(exec, want) {
				t.Errorf("NodeExecuted = %v, want %v", exec, want)
			}
		})
	}
}
