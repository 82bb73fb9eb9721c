package main

import (
	"time"

	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
)

// fanoutWidth is the number of parallel workers behind the splitter.
const fanoutWidth = 8

// fanoutWorkload is the paper's data-parallel graph: a generator, a
// round-robin splitter, fanoutWidth native closure workers and one
// sink. Every tuple crosses two queue hops (fan-out, fan-in) and no
// VM, SPL or ingest code.
type fanoutWorkload struct {
	seed    uint64
	limit   uint64
	wantSum uint64
}

func newFanoutWorkload(seed int64, limit uint64) *fanoutWorkload {
	w := &fanoutWorkload{seed: uint64(seed), limit: limit - limit%fanoutWidth}
	for i := uint64(0); i < w.limit; i++ {
		w.wantSum += w.payload(i)
	}
	return w
}

// payload is the seeded word every tuple carries; the sink sums it.
func (w *fanoutWorkload) payload(i uint64) uint64 { return splitmix64(w.seed ^ i) }

func (w *fanoutWorkload) topology() ops.Topology {
	return ops.Topology{Width: fanoutWidth, Depth: 1, Cost: 16}
}

func (w *fanoutWorkload) source() *ops.Generator {
	return &ops.Generator{Limit: w.limit, Payload: func(i uint64) tuple.Tuple { return tuple.NewData(i, w.payload(i)) }}
}

func (w *fanoutWorkload) inputs() uint64 { return w.limit }

func (w *fanoutWorkload) build() (*closedJob, error) {
	g, snk, err := w.topology().BuildWithSource(w.source())
	if err != nil {
		return nil, err
	}
	pr := newProgress(w.limit)
	var sum uint64
	sinkAt := make([]time.Duration, w.limit/spanEvery+1)
	snk.OnTuple = func(t tuple.Tuple) {
		sum += t.Words[1]
		pr.add(1)
		if i := t.Words[0]; i%spanEvery == 0 && i/spanEvery < uint64(len(sinkAt)) {
			sinkAt[i/spanEvery] = time.Since(pr.start)
		}
	}
	return &closedJob{
		g:      g,
		sink:   pr,
		sinkAt: sinkAt,
		check: func(p *pe.PE) (uint64, error) {
			failed := mismatch(w.limit, snk.Count(), sum == w.wantSum)
			// Round-robin partitioning: every worker must have executed
			// exactly its share (the manual model has no per-node meters).
			exec := make([]uint64, p.NumNodes())
			if p.NodeExecuted(exec) {
				for _, n := range g.Nodes {
					if _, ok := n.Op.(*ops.Worker); ok {
						failed += absDiff(exec[n.ID], w.limit/fanoutWidth)
					}
				}
			}
			return failed, nil
		},
	}, nil
}
