package ingest_test

// Chaos soak for the network front door: flooding, wedged-reader, and
// connection-reset faults fire on seeded schedules while concurrent
// clients overdrive a two-class tenant mix through a live PE with the
// stall watchdog armed. The invariants are the robustness acceptance
// criteria: the run finishes (no deadlock), the drain is clean, the
// watchdog never fires, and the admission boundary conserves exactly —
// every admitted tuple reaches the sink, no more, no fewer.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streams/internal/fault"
	"streams/internal/ingest"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
)

func TestChaosIngest(t *testing.T) {
	const (
		clients   = 3 // per tenant
		perClient = 4000
	)
	inj := fault.New(fault.Config{
		Seed:            42,
		FloodRate:       0.01,
		ClientSlowRate:  0.002,
		ClientSlowFor:   200 * time.Microsecond,
		ClientResetRate: 0.0002,
	})
	srv, err := ingest.NewServer(ingest.Config{
		Tenants: []ingest.TenantConfig{
			// Gold holds a loss-free contract: Block policy, generous
			// shaping bucket, guaranteed class.
			{Name: "gold", Policy: ingest.Block, Rate: 500000, Burst: 1024, Guaranteed: true},
			// Bronze is policed hard and shed under pressure. The
			// contract is set low enough that its clients overdrive it
			// even when the race detector and a loaded machine slow the
			// sender goroutines — at 20000/s the throttle assertion
			// below was timing-dependent.
			{Name: "bronze", Policy: ingest.ShedOldest, Rate: 2000, Burst: 128, QueueCap: 256},
		},
		Fault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	snk := &ops.Sink{}
	p := buildPipeline(t, srv, snk, &punctCounter{}, pe.Config{
		Model:            pe.Dynamic,
		Threads:          2,
		WatchdogInterval: 100 * time.Millisecond,
		Fault:            inj, // the same injector serves the operator seams (all zero-rate here)
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var dialed atomic.Uint64
	for _, tenant := range []string{"gold", "bronze"} {
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(tenant string, cl int) {
				defer wg.Done()
				c, err := ingest.Dial(srv.Addr(), tenant)
				if err != nil {
					t.Error(err)
					return
				}
				dialed.Add(1)
				for i := 0; i < perClient; i++ {
					if err := c.Send(tuple.NewData(uint64(i), uint64(cl))); err != nil {
						// A seeded reset severed the connection under us:
						// that is the chaos working, not a failure.
						c.Abort()
						return
					}
					if i%256 == 255 {
						if err := c.Flush(); err != nil {
							c.Abort()
							return
						}
					}
				}
				c.Close()
			}(tenant, cl)
		}
	}
	wg.Wait()

	// Wait for the readers to finish consuming what the clients wrote,
	// then for the pump to absorb whatever the faults left queued. The
	// open-connection gauge matters: a client can complete its whole
	// stream into kernel socket buffers before the server's reader
	// goroutines catch up, and stopping on "queues empty" alone would
	// then sever the connections before admission ever saw the data.
	// For the same reason a connection can still sit in the listen
	// backlog, not yet accepted and so not yet open: wait until every
	// dialed connection has been accepted.
	waitFor(t, 20*time.Second, "connections to settle and queues to drain", func() bool {
		sn := srv.Snapshot()
		if sn.Totals.Conns < dialed.Load() || sn.Open > 0 {
			return false
		}
		for _, tn := range sn.Tenants {
			if tn.Depth > 0 {
				return false
			}
		}
		return true
	})
	stopWait(t, p)

	sn := srv.Snapshot()
	// Conservation at the admission boundary: the sink must see exactly
	// the admitted tuples — shed and throttled traffic never leaks
	// through, admitted traffic never vanishes.
	if got := snk.Count(); got != sn.Totals.Admitted {
		t.Fatalf("sink saw %d tuples, admission recorded %d", got, sn.Totals.Admitted)
	}
	// Bronze's contract is far below its offered rate: the policer and
	// shedder must have engaged.
	if sn.Totals.Throttled == 0 {
		t.Fatalf("bronze was never throttled despite a heavily overdriven contract; totals %+v tenants %+v", sn.Totals, sn.Tenants)
	}
	// The flood fault really ran.
	if inj.Fired(fault.ClientFlood) == 0 {
		t.Fatal("flood fault never fired")
	}
	// The scheduler's watchdog stayed quiet: chaos at the edge must not
	// stall the runtime's threads.
	if stalls := p.SchedStats().Faults.WatchdogStalls; stalls != 0 {
		t.Fatalf("watchdog reported %d stalled threads during the soak", stalls)
	}
	// Gold's loss-free contract held even under chaos: a gold client
	// either died to a seeded reset mid-stream or got every tuple in.
	for _, tn := range sn.Tenants {
		if tn.Name == "gold" && tn.Shed != 0 {
			t.Fatalf("gold (Block policy) shed %d tuples", tn.Shed)
		}
	}
}
