package main

import (
	"sort"
	"time"

	"streams/internal/tuple"
)

// The open-loop load generator. It offers tuples on a fixed-interval
// schedule that does not slow down when the system does: whenever it
// wakes it sends every tuple whose due time has passed, then flushes
// the burst. Each tuple carries its *due* time, not the time it was
// actually sent, so a stall anywhere — in the generator, the socket or
// the system — is charged to every tuple that was due during it (no
// coordinated omission). How late the generator itself ran is reported
// separately so a late generator is never mistaken for a slow system.
//
// Payload layout: Words[0] is the connection's own counter (FIFO
// check), Words[1] the due time in ns since the run's time origin,
// Words[2] the connection index, Words[3] a seeded word.

const (
	// spanEvery is the span sampling stride: one tuple in spanEvery has
	// its send, submit-seam and sink instants kept for the waterfall.
	spanEvery = 1024
	// lateEvery is the lateness sampling stride for the percentile; the
	// maximum is tracked over every tuple.
	lateEvery = 64
)

// sender is the wire side of the generator: ingest.Client in the real
// runs, a fake in gen_test.go.
type sender interface {
	Send(t tuple.Tuple) error
	Flush() error
}

type generator struct {
	out   sender
	conn  int
	seed  uint64
	rate  float64       // tuples per second
	first time.Duration // due time of tuple 0, as an offset from the origin
	end   time.Duration // tuples due before end are sent
	// now returns the time since the run's origin; sleep waits. Both are
	// injectable so a test can stall the generator.
	now   func() time.Duration
	sleep func(time.Duration)

	sent    uint64
	lateMax time.Duration
	late    []uint32        // sampled lateness, ns (saturating)
	sendAt  []time.Duration // send instant of tuple k*spanEvery
}

// due returns tuple i's scheduled send time. Computed from i, not
// accumulated, so the schedule cannot drift.
func (g *generator) due(i uint64) time.Duration {
	return g.first + time.Duration(float64(i)*1e9/g.rate)
}

// total is the number of tuples the schedule holds.
func (g *generator) total() uint64 {
	if g.end <= g.first {
		return 0
	}
	n := uint64(float64(g.end-g.first) * g.rate / 1e9)
	for g.due(n) < g.end {
		n++
	}
	for n > 0 && g.due(n-1) >= g.end {
		n--
	}
	return n
}

// dueBefore is the number of scheduled tuples due before offset t.
func (g *generator) dueBefore(t time.Duration) uint64 {
	h := *g
	h.end = min(t, g.end)
	return h.total()
}

// run offers the whole schedule and returns the first send error.
func (g *generator) run() error {
	total := g.total()
	g.late = make([]uint32, 0, total/lateEvery+1)
	g.sendAt = make([]time.Duration, total/spanEvery+1)
	for i := uint64(0); i < total; {
		now := g.now()
		from := i
		for i < total && g.due(i) <= now {
			if err := g.out.Send(tuple.NewData(i, uint64(g.due(i)), uint64(g.conn), splitmix64(g.seed^i))); err != nil {
				return err
			}
			i++
		}
		if i > from {
			// The burst leaves the generator's hands here; lateness is
			// measured to this instant.
			ts := g.now()
			if l := ts - g.due(from); l > g.lateMax {
				g.lateMax = l
			}
			for k := from; k < i; k++ {
				if k%lateEvery == 0 {
					g.late = append(g.late, satNs(ts-g.due(k)))
				}
				if k%spanEvery == 0 {
					g.sendAt[k/spanEvery] = ts
				}
			}
			if err := g.out.Flush(); err != nil {
				return err
			}
			g.sent = i
		}
		if i < total {
			if d := g.due(i) - g.now(); d > 0 {
				g.sleep(d)
			}
		}
	}
	return nil
}

func satNs(d time.Duration) uint32 {
	switch {
	case d < 0:
		return 0
	case d > time.Duration(^uint32(0)):
		return ^uint32(0)
	}
	return uint32(d)
}

// lateP99 is the 99th percentile of the sampled lateness.
func lateP99(gens []*generator) time.Duration {
	var all []uint32
	for _, g := range gens {
		all = append(all, g.late...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return time.Duration(quantile(all, 0.99))
}
