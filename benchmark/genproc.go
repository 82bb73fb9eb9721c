package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"streams/internal/ingest"
)

// The load generator runs as a process of its own: the same binary,
// started with roleEnv set. A generator inside the system's process
// would share its Go scheduler and timers — it would be starved exactly
// when the system is busy and would keep the runtime awake exactly when
// the system should be idle — and its CPU and allocations would be
// charged to the system. Separate, it is scheduled by the kernel, paces
// itself with nanosleep, and shares only the wall clock with the
// harness: both sides measure time as wall time since an agreed origin.

// roleEnv marks a process as the load generator and carries its plan.
const roleEnv = "STREAMS_BENCH_GENERATOR"

// genPlan is what the harness asks the generator process to do.
type genPlan struct {
	Addr   string
	Origin int64 // UnixNano of the schedules' time origin
	Conns  []genConnPlan
}

type genConnPlan struct {
	Tenant string
	Conn   int
	Seed   uint64
	Rate   float64
	First  time.Duration
	End    time.Duration
}

// genReport is what the generator process prints when it is done.
type genReport struct {
	Conns []genConnReport
}

type genConnReport struct {
	Sent    uint64
	LateMax time.Duration
	Late    []uint32
	SendAt  []time.Duration
	Err     string
}

// since is the shared clock: wall time since the origin.
func since(originUnixNano int64) time.Duration {
	return time.Duration(time.Now().UnixNano() - originUnixNano)
}

// preciseSleep waits in the kernel, which honours microsecond sleeps; a
// Go timer in an otherwise idle process rounds them up to a millisecond.
// An early return (EINTR) is harmless: the generator re-reads the clock.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// maybeGenerator turns this process into the load generator when the
// environment says so; it does not return in that case.
func maybeGenerator() {
	raw := os.Getenv(roleEnv)
	if raw == "" {
		return
	}
	var plan genPlan
	if err := json.Unmarshal([]byte(raw), &plan); err != nil {
		fmt.Fprintln(os.Stderr, "generator: bad plan:", err)
		os.Exit(2)
	}
	rep := runPlan(plan)
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "generator:", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// runPlan dials every connection, then offers every schedule, one
// goroutine per connection.
func runPlan(plan genPlan) genReport {
	rep := genReport{Conns: make([]genConnReport, len(plan.Conns))}
	clients := make([]*ingest.Client, len(plan.Conns))
	for c, cp := range plan.Conns {
		cl, err := ingest.Dial(plan.Addr, cp.Tenant)
		if err == nil {
			err = cl.Flush() // the preamble
		}
		if err != nil {
			rep.Conns[c].Err = err.Error()
			return rep
		}
		clients[c] = cl
	}
	var wg sync.WaitGroup
	for c, cp := range plan.Conns {
		wg.Add(1)
		go func(c int, cp genConnPlan) {
			defer wg.Done()
			g := cp.generator()
			g.out = clients[c]
			g.now = func() time.Duration { return since(plan.Origin) }
			g.sleep = preciseSleep
			r := &rep.Conns[c]
			if err := g.run(); err != nil {
				r.Err = err.Error()
			}
			// Close ends the stream with a FinalMark; its error is the
			// socket's, after every frame has been flushed.
			_ = clients[c].Close()
			r.Sent, r.LateMax, r.Late, r.SendAt = g.sent, g.lateMax, g.late, g.sendAt
		}(c, cp)
	}
	wg.Wait()
	return rep
}

func (cp genConnPlan) generator() *generator {
	return &generator{conn: cp.Conn, seed: cp.Seed, rate: cp.Rate, first: cp.First, end: cp.End}
}

// genProc is a running generator process.
type genProc struct {
	cancel context.CancelFunc
	done   chan struct{}
	out    []byte
	err    error
}

// startGenerator launches the generator process on plan.
func startGenerator(plan genPlan) (*genProc, error) {
	raw, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), roleEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	p := &genProc{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.out, p.err = cmd.Output()
	}()
	return p, nil
}

// wait collects the generator's report; the process has ended when it
// returns.
func (p *genProc) wait(plan genPlan) ([]*generator, error) {
	<-p.done
	p.cancel()
	if p.err != nil {
		return nil, fmt.Errorf("generator process: %w", p.err)
	}
	var rep genReport
	if err := json.Unmarshal(p.out, &rep); err != nil {
		return nil, fmt.Errorf("generator process: bad report: %w", err)
	}
	if len(rep.Conns) != len(plan.Conns) {
		return nil, fmt.Errorf("generator process reported %d connections, want %d", len(rep.Conns), len(plan.Conns))
	}
	gens := make([]*generator, len(plan.Conns))
	for c, cp := range plan.Conns {
		r := rep.Conns[c]
		if r.Err != "" {
			return nil, fmt.Errorf("generator connection %d: %s", c, r.Err)
		}
		g := cp.generator()
		g.sent, g.lateMax, g.late, g.sendAt = r.Sent, r.LateMax, r.Late, r.SendAt
		gens[c] = g
	}
	return gens, nil
}
