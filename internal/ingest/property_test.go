package ingest_test

// Property tests for the admission contracts, meant to run under the
// race detector:
//
//   - Block: an admitted tuple is NEVER dropped, no matter how small
//     the queue or how hard concurrent clients push — the policy trades
//     client-side delay for loss-freedom.
//   - Shed: the tuples that survive keep their per-client FIFO order,
//     and punctuation is delivered even when every data tuple around it
//     was shed.

import (
	"sync"
	"testing"
	"time"

	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
)

// TestBlockNoAdmittedTupleDropped hammers a tiny Block queue from
// concurrent clients through a live PE and checks exact conservation:
// every offered tuple reaches the sink, in per-client FIFO order, with
// zero shed.
func TestBlockNoAdmittedTupleDropped(t *testing.T) {
	const clients, perClient = 4, 3000
	srv, err := ingest.NewServer(ingest.Config{
		Tenants: []ingest.TenantConfig{{
			Name:   "acme",
			Policy: ingest.Block,
			// A deliberately tiny queue so the full-queue blocking path
			// runs constantly.
			QueueCap: 16,
			// A shaping contract well below the offered rate so the
			// bucket-wait path runs too.
			Rate:  200000,
			Burst: 64,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var seenMu sync.Mutex
	seen := make([][]uint64, clients)
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		seenMu.Lock()
		seen[tp.Words[1]] = append(seen[tp.Words[1]], tp.Words[0])
		seenMu.Unlock()
	}}
	p := buildPipeline(t, srv, snk, &punctCounter{}, pe.Config{Model: pe.Dynamic, Threads: 2})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := ingest.Dial(srv.Addr(), "acme")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perClient; i++ {
				if err := c.Send(tuple.NewData(uint64(i), uint64(cl))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		}(cl)
	}
	wg.Wait()
	waitFor(t, 30*time.Second, "all offered tuples admitted", func() bool {
		return srv.Metrics().Snapshot().Admitted >= clients*perClient
	})
	stopWait(t, p)
	sn := srv.Snapshot()
	if sn.Totals.Shed != 0 {
		t.Fatalf("Block policy shed %d tuples", sn.Totals.Shed)
	}
	if got := snk.Count(); got != clients*perClient {
		t.Fatalf("sink saw %d tuples, want %d: admitted tuples were dropped", got, clients*perClient)
	}
	for cl := 0; cl < clients; cl++ {
		if len(seen[cl]) != perClient {
			t.Fatalf("client %d: %d tuples survived, want %d", cl, len(seen[cl]), perClient)
		}
		for i, v := range seen[cl] {
			if v != uint64(i) {
				t.Fatalf("client %d: position %d holds %d — FIFO order broken", cl, i, v)
			}
		}
	}
}

// TestShedOldestFIFOAndPunctSurvival fills a tiny shed-oldest queue
// with far more data than it can hold while the pump is NOT running,
// then starts the runtime and checks the two survival properties: the
// survivors arrive in FIFO order, and every window punctuation is
// delivered even though almost all data around it was shed.
func TestShedOldestFIFOAndPunctSurvival(t *testing.T) {
	const N, every = 2000, 100 // 20 window marks among 2000 tuples
	began := time.Now()
	shedAge := metrics.NewHistogram(1)
	srv, err := ingest.NewServer(ingest.Config{
		Tenants: []ingest.TenantConfig{{Name: "acme", Policy: ingest.ShedOldest, QueueCap: 16}},
		ShedAge: shedAge,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seenMu sync.Mutex
	var seen []uint64
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		seenMu.Lock()
		seen = append(seen, tp.Words[0])
		seenMu.Unlock()
	}}
	pc := &punctCounter{}
	p := buildPipeline(t, srv, snk, pc, pe.Config{Model: pe.Dynamic, Threads: 2})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Offer the whole load before the pump exists: the queue sheds its
	// oldest entries over and over, parking any punctuation victims.
	c, err := ingest.Dial(srv.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		if err := c.Send(tuple.NewData(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if i%every == every-1 {
			c.Send(tuple.Window())
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// All dispositions are settled before the runtime starts (Close
	// returns after the server read the whole stream? No — Close only
	// flushes the socket). Wait for the server to account for every
	// offered tuple first.
	waitFor(t, 10*time.Second, "all offers accounted", func() bool {
		s := srv.Metrics().Snapshot()
		depth := 0
		for _, tn := range srv.Snapshot().Tenants {
			depth = tn.Depth
		}
		return s.Shed+uint64(depth) >= N // puncts park, data queues or sheds
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "queues to drain", func() bool {
		for _, tn := range srv.Snapshot().Tenants {
			if tn.Depth > 0 {
				return false
			}
		}
		return true
	})
	stopWait(t, p)

	if got := pc.n.Load(); got != N/every {
		t.Fatalf("%d window marks delivered, want %d: punctuation was shed", got, N/every)
	}
	seenMu.Lock()
	defer seenMu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no data survived at all")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("survivors out of order at %d: %d after %d", i, seen[i], seen[i-1])
		}
	}
	sn := srv.Snapshot()
	if sn.Totals.Shed == 0 {
		t.Fatal("overload run shed nothing — the test offered too little")
	}
	// Conservation: every data tuple was either shed or reached the sink.
	if got := sn.Totals.Shed + snk.Count(); got != N {
		t.Fatalf("shed %d + delivered %d != offered %d", sn.Totals.Shed, snk.Count(), N)
	}
	// Every victim's queue residence was measured from a real enqueue
	// stamp (the stamp is only taken for tenants that can have victims;
	// a zero stamp would read as decades).
	ages := shedAge.Snapshot()
	if ages.Total != sn.Totals.Shed || ages.Max() > 2*time.Since(began) {
		t.Fatalf("shed-age histogram has %d samples, max %v; want %d samples within the test's %v",
			ages.Total, ages.Max(), sn.Totals.Shed, time.Since(began))
	}
}

// TestShedNewestKeepsBacklog checks the other shed flavor: with the
// pump stopped, the first QueueCap tuples survive and later arrivals
// are refused — the mirror image of shed-oldest.
func TestShedNewestKeepsBacklog(t *testing.T) {
	const N, qcap = 500, 16
	srv, err := ingest.NewServer(ingest.Config{
		Tenants: []ingest.TenantConfig{{Name: "acme", Policy: ingest.ShedNewest, QueueCap: qcap}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var seenMu sync.Mutex
	var seen []uint64
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		seenMu.Lock()
		seen = append(seen, tp.Words[0])
		seenMu.Unlock()
	}}
	p := buildPipeline(t, srv, snk, &punctCounter{}, pe.Config{Model: pe.Dynamic, Threads: 2})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := ingest.Dial(srv.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		if err := c.Send(tuple.NewData(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "all offers accounted", func() bool {
		return srv.Metrics().Snapshot().Shed >= N-qcap
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	stopWait(t, p)
	seenMu.Lock()
	defer seenMu.Unlock()
	if len(seen) != qcap {
		t.Fatalf("%d survivors, want the first %d", len(seen), qcap)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("survivor %d is %d: shed-newest must keep the oldest backlog intact", i, v)
		}
	}
}
