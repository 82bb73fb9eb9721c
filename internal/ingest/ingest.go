// Package ingest is the runtime's network front door: a TCP/HTTP
// listener that accepts many concurrent client connections and feeds
// their tuples into a stream graph's source port, with per-tenant
// admission control so offered load beyond capacity degrades service
// gracefully instead of collapsing it.
//
// The Röger/Mayer survey frames elasticity and load shedding as the two
// complementary overload responses; the runtime already has the
// elasticity half (the PE's adaptation loop), and this package supplies
// the shedding/admission half. Following Elasticutor's per-executor
// load model, every admission decision is per-tenant — a token bucket
// contract, a bounded queue, a shed policy, a priority class — so one
// hot tenant cannot starve the rest.
//
// Data path: connection readers decode frames (the xport wire layout)
// and run admission — token bucket, overload gate, bounded queue with
// the tenant's policy. A single pump goroutine, which is the graph's
// source operator thread (Server implements graph.Source), drains the
// tenant queues in strict priority order — guaranteed tenants before
// best-effort — and submits into the runtime, where the standard
// back-pressure path (full-queue reSchedule self-help) takes over.
// Under the Block policy a full tenant queue blocks the connection
// reader, which propagates back-pressure to the client through TCP; the
// shed policies instead drop from the queue's head (shed-oldest, bounds
// staleness) or refuse the arrival (shed-newest, bounds churn).
//
// Shutdown is a graceful drain: stop accepting, sever client
// connections, flush every already-admitted tuple into the runtime
// within the drain deadline, then return from Run so the runtime's
// final punctuation and the PE's Shutdown/WaitTimeout bounds do the
// rest.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/lfq"
	"streams/internal/metrics"
	"streams/internal/trace"
	"streams/internal/tuple"
	"streams/internal/xport"
)

// Wire protocol: a connection opens with the preamble — magic, version,
// tenant-name length and name — then carries frames in the xport layout
// (kind byte, sequence number, payload words; see xport.FrameSize).
// The stream is one-way like an xport link; a client signals clean end
// of stream with a FinalMark frame, which closes the connection but is
// NOT forwarded into the graph (the runtime emits the source's final
// punctuation itself when the server drains). Connections whose first
// bytes are not the magic are served as HTTP: POST /ingest?tenant=NAME
// with a body of concatenated frames returns a JSON disposition count.
const (
	magic   = "SPLN"
	version = 1
	// maxTenantName bounds the preamble's name field.
	maxTenantName = 256
)

// Policy selects what a tenant's full queue does with load.
type Policy uint8

const (
	// Block makes the connection reader wait for queue space: loss-free
	// admission, with back-pressure propagated to the client through
	// TCP. The rate limiter shapes (delays) rather than polices (drops)
	// under this policy, so an admitted tuple is never dropped.
	Block Policy = iota
	// ShedOldest drops from the queue's head to make room for new
	// arrivals: bounded staleness, freshest data survives.
	ShedOldest
	// ShedNewest refuses the new arrival when the queue is full: the
	// backlog drains in order, arrivals during overload are dropped.
	ShedNewest
)

// String implements fmt.Stringer; the names double as flag values.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case ShedOldest:
		return "shed-oldest"
	case ShedNewest:
		return "shed-newest"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy parses a Policy name as accepted by streamsim flags.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "block":
		return Block, nil
	case "shed-oldest", "oldest":
		return ShedOldest, nil
	case "shed-newest", "newest":
		return ShedNewest, nil
	default:
		return 0, fmt.Errorf("ingest: unknown policy %q (block, shed-oldest, shed-newest)", s)
	}
}

// TenantConfig is one tenant's admission contract.
type TenantConfig struct {
	// Name identifies the tenant on the wire (preamble / query param).
	Name string
	// Rate is the token-bucket rate in tuples/s; 0 leaves the tenant
	// unmetered (queue policy only).
	Rate float64
	// Burst is the bucket depth in tuples. Default: Rate/10 (100ms of
	// contracted rate), minimum 16.
	Burst int
	// QueueCap bounds the tenant's admission queue; rounded up to a
	// power of two. Default 1024.
	QueueCap int
	// Policy selects the full-queue behavior.
	Policy Policy
	// Guaranteed marks the priority class: guaranteed tenants are
	// pumped first and are exempt from the global overload gate, so
	// best-effort traffic is shed before guaranteed traffic ever is.
	Guaranteed bool
}

// Config parametrizes a Server.
type Config struct {
	// Tenants is the static tenant set. At least one is required.
	Tenants []TenantConfig
	// Metrics receives the admission meters; nil allocates a private
	// set (reachable via Metrics()).
	Metrics *metrics.Ingest
	// ShedAge, if non-nil, receives the queue residence time of every
	// shed-oldest victim — how stale the dropped data was.
	ShedAge *metrics.Histogram
	// Fault arms the client-facing chaos seams (ClientSlow,
	// ClientReset, ClientFlood). Nil means no injection.
	Fault *fault.Injector
	// Tracer, if non-nil, receives admit/shed/throttle instants on
	// TraceRing. The ring is shared by connection readers and the pump,
	// so emission is serialized by a mutex — fine for these slow-path,
	// per-batch events, unlike the scheduler's per-decision rings.
	Tracer *trace.Tracer
	// TraceRing is the tracer ring index for ingest events.
	TraceRing int
	// IdleTimeout evicts a connection that has not completed a frame
	// within it — both idle clients and slow-loris dribblers hold
	// resources no longer than this. Default 10s.
	IdleTimeout time.Duration
	// DrainDeadline bounds the shutdown flush of admitted tuples.
	// Default 5s; the PE overrides it with its shutdown budget through
	// SetDrainDeadline.
	DrainDeadline time.Duration
	// Backlog, if set with BacklogLimit > 0, is polled by the pump as
	// the global overload gate (pe.Backlog is the intended source):
	// while it exceeds BacklogLimit, best-effort tuples are shed at
	// admission instead of queued.
	Backlog      func() int
	BacklogLimit int
	// TagWord, if in [0, PayloadWords), makes admission write the
	// tenant ID into that payload word so sinks can attribute tuples
	// to priority classes. Default -1 (off).
	TagWord int
	// OpName is the source operator's diagnostic name. Default
	// "Ingest".
	OpName string
}

// item is one queued admission: the tuple and — only where a shed-oldest
// victim's staleness is measured (Config.ShedAge on a ShedOldest tenant),
// 0 otherwise — its enqueue time.
type item struct {
	t  tuple.Tuple
	at int64
}

// tenant is one tenant's runtime state.
type tenant struct {
	id  int32
	cfg TenantConfig
	// bkt is nil for unmetered tenants.
	bkt *bucket
	q   *lfq.MPMC[item]
	// puncts is the punctuation overflow: window punctuation is never
	// shed, so when a shed policy would have to drop one (as the
	// arrival or as a victim) it is parked here and drained by the
	// pump ahead of the queue. Slow path only.
	poMu   sync.Mutex
	puncts []tuple.Tuple

	admitted  atomic.Uint64 // submitted into the runtime by the pump
	shed      atomic.Uint64 // dropped at the door or as queue victims
	throttled atomic.Uint64 // refused (or delayed, under Block) by the bucket
}

// depth returns the tenant's current queue occupancy including parked
// punctuation.
func (tn *tenant) depth() int {
	tn.poMu.Lock()
	po := len(tn.puncts)
	tn.poMu.Unlock()
	return tn.q.Len() + po
}

// Server is the ingest front end. It implements graph.Source: place it
// as a source node and the PE's source thread becomes the admission
// pump. Listen may be called before or after the PE starts; tuples
// admitted before Run simply wait in the tenant queues.
type Server struct {
	cfg     Config
	met     *metrics.Ingest
	tenants []*tenant
	byName  map[string]*tenant
	// order is the pump's strict-priority service order: guaranteed
	// tenants first, then best-effort.
	order []*tenant

	ln      net.Listener
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	connWG  sync.WaitGroup
	connSeq atomic.Uint64
	// openConns gauges currently-open client connections: incremented
	// when a connection is registered, decremented when its serve
	// goroutine exits. Tests and panels use it to tell "no data queued"
	// from "data still in flight behind a lagging reader".
	openConns atomic.Int64
	draining  atomic.Bool
	overload  atomic.Bool
	drainNs   atomic.Int64
	// lastPoll is the pump's overload-poll throttle; pump-thread only.
	lastPoll int64
	// pumpIdle is raised by the pump when a round found nothing and it
	// is about to wait; kick is the one-slot channel it waits on. A
	// reader about to wait with tuples admitted sends the kick while
	// pumpIdle is set (wakePump; see Run for the handshake).
	pumpIdle atomic.Bool
	kick     chan struct{}
	// pumpBuf gathers one drainTenant's tuples for a single SubmitBatch;
	// pump-thread only, reused across rounds.
	pumpBuf []tuple.Tuple

	emitMu sync.Mutex
}

// NewServer validates cfg and builds a Server.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("ingest: no tenants configured")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New[metrics.Ingest](16)
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 10 * time.Second
	}
	if cfg.DrainDeadline <= 0 {
		cfg.DrainDeadline = 5 * time.Second
	}
	if cfg.TagWord == 0 {
		cfg.TagWord = -1
	}
	if cfg.TagWord >= tuple.PayloadWords {
		return nil, fmt.Errorf("ingest: TagWord %d out of range", cfg.TagWord)
	}
	s := &Server{cfg: cfg, met: cfg.Metrics, byName: make(map[string]*tenant), conns: make(map[net.Conn]struct{}),
		kick: make(chan struct{}, 1)}
	s.drainNs.Store(int64(cfg.DrainDeadline))
	for i, tc := range cfg.Tenants {
		if tc.Name == "" || len(tc.Name) > maxTenantName {
			return nil, fmt.Errorf("ingest: tenant %d has an invalid name %q", i, tc.Name)
		}
		if _, dup := s.byName[tc.Name]; dup {
			return nil, fmt.Errorf("ingest: duplicate tenant %q", tc.Name)
		}
		if tc.QueueCap <= 0 {
			tc.QueueCap = 1024
		}
		capPow := 1
		for capPow < tc.QueueCap {
			capPow <<= 1
		}
		tn := &tenant{id: int32(i), cfg: tc, q: lfq.NewMPMC[item](capPow)}
		if tc.Rate > 0 {
			burst := tc.Burst
			if burst <= 0 {
				burst = int(tc.Rate / 10)
				if burst < 16 {
					burst = 16
				}
			}
			tn.bkt = newBucket(tc.Rate, burst)
		}
		s.tenants = append(s.tenants, tn)
		s.byName[tc.Name] = tn
	}
	for _, tn := range s.tenants {
		if tn.cfg.Guaranteed {
			s.order = append(s.order, tn)
		}
	}
	for _, tn := range s.tenants {
		if !tn.cfg.Guaranteed {
			s.order = append(s.order, tn)
		}
	}
	return s, nil
}

// Metrics returns the server's admission meter set.
func (s *Server) Metrics() *metrics.Ingest { return s.met }

// Name implements graph.Operator.
func (s *Server) Name() string {
	if s.cfg.OpName == "" {
		return "Ingest"
	}
	return s.cfg.OpName
}

// Process implements graph.Operator; sources receive no input.
func (s *Server) Process(graph.Submitter, tuple.Tuple, int) {}

// SetDrainDeadline is the PE's shutdown-budget hand-off (see pe.Start):
// the flush of admitted tuples on stop must fit in the same bound the
// scheduler's own shutdown gets.
func (s *Server) SetDrainDeadline(d time.Duration) {
	if d > 0 {
		s.drainNs.Store(int64(d))
	}
}

// Listen opens the front door on addr and starts accepting connections.
// Call before the PE starts to know the bound address (Addr).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			// Listener closed or broken outside a drain: stop accepting;
			// existing connections keep streaming.
			return
		}
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.openConns.Add(1)
		s.connMu.Unlock()
		tid := int(s.connSeq.Add(1))
		s.met.Conns.Add(tid, 1)
		go s.serve(conn, tid)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	conn.Close()
	s.openConns.Add(-1)
	s.connWG.Done()
}

// serve sniffs the protocol and runs the connection to completion.
func (s *Server) serve(conn net.Conn, tid int) {
	defer s.dropConn(conn)
	defer s.wakePump() // for tuples admitted after the last socket read
	br := bufio.NewReaderSize(pumpWaker{conn, s}, 16<<10)
	conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	head, err := br.Peek(len(magic))
	if err != nil {
		return
	}
	if string(head) == magic {
		s.serveFrames(conn, br, tid)
		return
	}
	s.serveHTTP(conn, br, tid)
}

// readPreamble consumes the magic/version/tenant preamble.
func (s *Server) readPreamble(br *bufio.Reader) (*tenant, error) {
	var pre [len(magic) + 1 + 2]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, err
	}
	if string(pre[:len(magic)]) != magic || pre[len(magic)] != version {
		return nil, fmt.Errorf("ingest: bad preamble %q", pre[:])
	}
	n := int(binary.BigEndian.Uint16(pre[len(magic)+1:]))
	if n == 0 || n > maxTenantName {
		return nil, fmt.Errorf("ingest: tenant name length %d out of range", n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	tn := s.byName[string(name)]
	if tn == nil {
		return nil, fmt.Errorf("ingest: unknown tenant %q", name)
	}
	return tn, nil
}

// serveFrames runs the binary protocol: preamble, then frames until
// FinalMark, error, eviction, or drain.
func (s *Server) serveFrames(conn net.Conn, br *bufio.Reader, tid int) {
	tn, err := s.readPreamble(br)
	if err != nil {
		s.met.Rejected.Add(tid, 1)
		return
	}
	inj := s.cfg.Fault
	var buf [xport.FrameSize]byte
	for !s.draining.Load() {
		// The deadline covers one whole frame: an idle client times out
		// between frames, a slow-loris dribbler times out inside one. It
		// is re-armed only ahead of a read that can block; a frame already
		// buffered is served from memory under the previous deadline.
		if br.Buffered() < xport.FrameSize {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		if inj.Should(fault.ClientSlow) {
			// A wedged reader: frames stack up in the kernel buffer and
			// back-pressure the client, exactly like a stalled consumer.
			time.Sleep(inj.Delay(fault.ClientSlow))
		}
		if inj.Should(fault.ClientReset) {
			// Peer vanishes mid-stream. Closing before the read models
			// the reset without leaving a half-consumed frame behind.
			return
		}
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.met.Evicted.Add(tid, 1)
			}
			return
		}
		t, err := xport.DecodeFrame(buf[:])
		if err != nil {
			s.met.Rejected.Add(tid, 1)
			return
		}
		if t.Kind == tuple.FinalMark {
			// Client end-of-stream. Not forwarded: the runtime emits the
			// source's final punctuation when the server itself drains.
			return
		}
		s.admit(tn, t, tid)
		if inj.Should(fault.ClientFlood) {
			// One extra copy per firing: a burst past the client's
			// nominal rate that admission must absorb or shed. Exactly
			// one, so chaos tests can account for the surplus via the
			// injector's fired count.
			s.admit(tn, t, tid)
		}
	}
}

// Disposition is what admission did with one tuple.
type Disposition uint8

const (
	// Admitted: queued for the pump (it will reach the runtime, except
	// for shed-oldest victims evicted before the pump gets there).
	Admitted Disposition = iota
	// Throttled: refused by the tenant's token bucket.
	Throttled
	// Shed: dropped by a shed policy (overload gate or full queue).
	Shed
	// Rejected: structurally refused (draining, unknown tenant).
	Rejected
)

// admit runs the admission pipeline for one tuple: bucket, overload
// gate, bounded queue with the tenant's policy.
func (s *Server) admit(tn *tenant, t tuple.Tuple, tid int) Disposition {
	if s.draining.Load() {
		s.met.Rejected.Add(tid, 1)
		return Rejected
	}
	if s.cfg.TagWord >= 0 {
		t.Words[s.cfg.TagWord] = uint64(tn.id)
	}
	isPunct := t.IsPunct()
	// Punctuation is flow control, not load: it bypasses the bucket (it
	// was not part of the contracted tuple rate) and is never shed.
	if !isPunct && tn.bkt != nil {
		now := time.Now().UnixNano()
		if ok, wait := tn.bkt.take(now); !ok {
			if tn.cfg.Policy != Block {
				// Policing: the tuple exceeds the contract, drop it.
				tn.throttled.Add(1)
				s.met.Throttled.Add(tid, 1)
				s.emit(trace.KindThrottle, tn.id, 1)
				return Throttled
			}
			// Shaping: delay the tuple until it conforms, re-checking
			// for drain so shutdown is not held hostage by a long wait.
			tn.throttled.Add(1)
			s.met.Throttled.Add(tid, 1)
			s.emit(trace.KindThrottle, tn.id, 1)
			s.wakePump() // what this reader admitted before the wait
			for {
				time.Sleep(wait)
				if s.draining.Load() {
					s.met.Rejected.Add(tid, 1)
					return Rejected
				}
				var ok bool
				ok, wait = tn.bkt.take(time.Now().UnixNano())
				if ok {
					break
				}
			}
		}
	}
	// Global overload gate: while the runtime itself is backlogged,
	// best-effort data is shed at the door — queuing it would only
	// trade memory for staleness. Guaranteed tenants pass; their
	// protection is the point of the priority class.
	if !isPunct && !tn.cfg.Guaranteed && s.overload.Load() {
		tn.shed.Add(1)
		s.met.Shed.Add(tid, 1)
		s.emit(trace.KindShed, tn.id, 1)
		return Shed
	}
	if isPunct {
		// Punctuation survives every policy: a full queue parks it in
		// the overflow the pump drains first.
		if s.tryPush(tn, t) {
			return Admitted
		}
		tn.poMu.Lock()
		tn.puncts = append(tn.puncts, t)
		tn.poMu.Unlock()
		return Admitted
	}
	switch tn.cfg.Policy {
	case Block:
		for {
			if s.tryPushWait(tn, t) {
				return Admitted
			}
			if s.draining.Load() {
				s.met.Rejected.Add(tid, 1)
				return Rejected
			}
			// Full: wait for the pump. This sleep is the back-pressure
			// seam — the reader stalls, the socket buffer fills, the
			// client's write blocks.
			time.Sleep(100 * time.Microsecond)
		}
	case ShedNewest:
		if s.tryPushWait(tn, t) {
			return Admitted
		}
		tn.shed.Add(1)
		s.met.Shed.Add(tid, 1)
		s.emit(trace.KindShed, tn.id, 1)
		return Shed
	default: // ShedOldest
		for {
			if s.tryPushWait(tn, t) {
				return Admitted
			}
			var victim item
			if !tn.q.Pop(&victim) {
				continue // lost the race to the pump; queue has room now
			}
			if victim.t.IsPunct() {
				tn.poMu.Lock()
				tn.puncts = append(tn.puncts, victim.t)
				tn.poMu.Unlock()
				continue
			}
			tn.shed.Add(1)
			s.met.Shed.Add(victimTid(victim), 1)
			if s.cfg.ShedAge != nil {
				s.cfg.ShedAge.Record(victimTid(victim), time.Duration(time.Now().UnixNano()-victim.at))
			}
			s.emit(trace.KindShed, tn.id, 1)
		}
	}
}

// victimTid picks a metric shard for a shed victim (any value works;
// Counter masks it).
func victimTid(it item) int { return int(it.t.Seq) }

// tryPush attempts one enqueue, retrying only transient slot busyness.
func (s *Server) tryPush(tn *tenant, t tuple.Tuple) bool {
	return s.tryPushWait(tn, t)
}

// tryPushWait pushes unless the queue is genuinely full, absorbing
// PushBusy (a consumer mid-pop) with a brief spin.
func (s *Server) tryPushWait(tn *tenant, t tuple.Tuple) bool {
	it := item{t: t}
	if s.cfg.ShedAge != nil && tn.cfg.Policy == ShedOldest {
		it.at = time.Now().UnixNano()
	}
	for {
		switch tn.q.PushEx(it) {
		case lfq.PushOK:
			return true
		case lfq.PushFull:
			return false
		default: // PushBusy: transient, the slot is being vacated
			continue
		}
	}
}

// pumpWaker is a connection as its bufio.Reader reads it. The buffer
// reads from the socket only once everything buffered has been consumed,
// so a Read here means the connection's reader has admitted every frame
// it has and is about to block: the moment to wake an idle pump. Waking
// it per admitted tuple instead was measured to cost ingest_paced tail
// latency — the pump, woken at a burst's first frame, raced the reader
// for the processor and pumped the burst a tuple at a time.
type pumpWaker struct {
	net.Conn
	s *Server
}

func (w pumpWaker) Read(p []byte) (int, error) {
	w.s.wakePump()
	return w.Conn.Read(p)
}

// wakePump sends the pump its kick if it has announced that it is idle:
// one atomic load per call while the pump is busy. A reader calls it
// whenever it is about to wait — on the socket (pumpWaker), on its
// tenant's shaper, or for good — after its admissions. Those pushes and
// the pump's announcement are sequentially consistent, so either the
// pump's re-check after announcing sees the tuples or this load sees the
// announcement.
func (s *Server) wakePump() {
	if s.pumpIdle.Load() {
		select {
		case s.kick <- struct{}{}:
		default: // a kick is already pending
		}
	}
}

// emit serializes trace emission on the shared ingest ring. Slow path
// only (throttle/shed decisions and pump batches, not per-tuple).
func (s *Server) emit(k trace.Kind, tenantID int32, count uint32) {
	tr := s.cfg.Tracer
	if !tr.On() {
		return
	}
	s.emitMu.Lock()
	tr.Emit(s.cfg.TraceRing, k, trace.PackPair(tenantID, count))
	s.emitMu.Unlock()
}

// pumpIdleWait bounds how long an idle pump waits for a kick: the
// cadence at which it still refreshes the overload gate (pollOverload's
// own throttle) when no tuple arrives to wake it.
const pumpIdleWait = time.Millisecond

// Run implements graph.Source: the admission pump. It drains tenant
// queues in strict priority order into the runtime until stop closes,
// then performs the graceful drain: stop accepting, sever connections,
// flush admitted tuples within the drain deadline.
//
// An idle pump does not poll. After a round that found nothing it
// announces that it is idle (pumpIdle), checks the tenant queues once
// more, and only then waits for a reader's kick, for stop, or for
// pumpIdleWait. A reader admits and then, before it waits, looks for the
// announcement (wakePump), so tuples that land after the re-check always
// send a kick: their arrival, not a timer, wakes the pump.
func (s *Server) Run(out graph.Submitter, stop <-chan struct{}) {
	const batch = 256
	timer := time.NewTimer(pumpIdleWait)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			s.beginDrain()
			s.flush(out, batch)
			return
		default:
		}
		n := s.pumpRound(out, batch)
		s.pollOverload()
		if n > 0 {
			continue
		}
		s.pumpIdle.Store(true)
		if !s.queued() {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(pumpIdleWait)
			select {
			case <-s.kick:
			case <-stop:
			case <-timer.C:
			}
		}
		s.pumpIdle.Store(false)
	}
}

// queued reports whether any tenant holds a tuple or a parked
// punctuation: the pump's re-check between announcing idle and waiting,
// and the drain's test for done.
func (s *Server) queued() bool {
	for _, tn := range s.order {
		if tn.depth() > 0 {
			return true
		}
	}
	return false
}

// pumpRound drains up to batch tuples from every tenant, guaranteed
// tenants first, and returns the number submitted.
func (s *Server) pumpRound(out graph.Submitter, batch int) int {
	total := 0
	for _, tn := range s.order {
		total += s.drainTenant(out, tn, batch)
	}
	return total
}

// drainTenant submits parked punctuation, then up to batch queued
// tuples, charging admission at this seam — "admitted" means handed to
// the runtime, which makes the disposition counters conserve exactly:
// every offered tuple ends in exactly one of admitted, shed, throttled,
// rejected, or is still queued.
func (s *Server) drainTenant(out graph.Submitter, tn *tenant, batch int) int {
	buf := s.pumpBuf[:0]
	tn.poMu.Lock()
	buf = append(buf, tn.puncts...)
	tn.puncts = nil
	tn.poMu.Unlock()
	var it item
	for n := 0; n < batch && tn.q.Pop(&it); n++ {
		buf = append(buf, it.t)
	}
	s.pumpBuf = buf
	tot := len(buf)
	if tot > 0 {
		graph.SubmitBatch(out, buf, 0)
		tn.admitted.Add(uint64(tot))
		s.met.Admitted.Add(int(tn.id), uint64(tot))
		s.emit(trace.KindAdmit, tn.id, uint32(tot))
	}
	return tot
}

// pollOverload refreshes the global overload gate from the runtime
// backlog, at most once per millisecond (the poll walks every queue).
func (s *Server) pollOverload() {
	if s.cfg.Backlog == nil || s.cfg.BacklogLimit <= 0 {
		return
	}
	now := time.Now().UnixNano()
	if now-s.lastPoll < int64(time.Millisecond) {
		return
	}
	s.lastPoll = now
	s.overload.Store(s.cfg.Backlog() > s.cfg.BacklogLimit)
}

// beginDrain closes the front door: no new connections, no new
// admissions, existing connections severed so their readers exit.
func (s *Server) beginDrain() {
	if s.draining.Swap(true) {
		return
	}
	s.connMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
}

// flush pushes every remaining admitted tuple into the runtime, bounded
// by the drain deadline.
func (s *Server) flush(out graph.Submitter, batch int) {
	deadline := time.Now().Add(time.Duration(s.drainNs.Load()))
	for {
		if s.pumpRound(out, batch) == 0 && !s.queued() {
			return
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// Close severs the front end outside a PE run (tests, error paths).
// Safe to call repeatedly and alongside Run's own drain.
func (s *Server) Close() { s.beginDrain() }

// Overloaded reports whether the global overload gate is currently
// tripped (the runtime backlog exceeded BacklogLimit at the last pump
// poll). One atomic load — cheap enough for the flight-recorder
// trigger check every observability sampling tick.
func (s *Server) Overloaded() bool { return s.overload.Load() }

// TenantSnapshot is one tenant's point-in-time admission state.
type TenantSnapshot struct {
	Name       string  `json:"name"`
	Guaranteed bool    `json:"guaranteed"`
	Policy     string  `json:"policy"`
	Admitted   uint64  `json:"admitted"`
	Shed       uint64  `json:"shed"`
	Throttled  uint64  `json:"throttled"`
	Depth      int     `json:"depth"`
	Cap        int     `json:"cap"`
	Fill       float64 `json:"bucket_fill"`
}

// Snapshot is the server-wide admission state, read in one pass so
// panels cannot tear ratios across counters.
type Snapshot struct {
	Totals     metrics.IngestSnapshot `json:"totals"`
	Tenants    []TenantSnapshot       `json:"tenants"`
	Open       int                    `json:"open_conns"`
	Overloaded bool                   `json:"overloaded"`
	Draining   bool                   `json:"draining"`
}

// Snapshot reads every tenant and the global meters.
func (s *Server) Snapshot() Snapshot {
	now := time.Now().UnixNano()
	out := Snapshot{
		Totals:     s.met.Snapshot(),
		Open:       int(s.openConns.Load()),
		Overloaded: s.overload.Load(),
		Draining:   s.draining.Load(),
	}
	for _, tn := range s.tenants {
		ts := TenantSnapshot{
			Name:       tn.cfg.Name,
			Guaranteed: tn.cfg.Guaranteed,
			Policy:     tn.cfg.Policy.String(),
			Admitted:   tn.admitted.Load(),
			Shed:       tn.shed.Load(),
			Throttled:  tn.throttled.Load(),
			Depth:      tn.depth(),
			Cap:        tn.q.Cap(),
		}
		if tn.bkt != nil {
			ts.Fill = tn.bkt.fill(now)
		}
		out.Tenants = append(out.Tenants, ts)
	}
	return out
}

// ParseTenants parses the streamsim -tenants spec: comma-separated
// name:rate[:burst[:policy[:class]]] entries, e.g.
//
//	gold:50000:500:block:guaranteed,bronze:50000::shed-oldest
//
// Empty fields keep defaults; class is "guaranteed" or "besteffort"
// (default). defPolicy applies when an entry omits its policy.
func ParseTenants(spec string, defPolicy Policy) ([]TenantConfig, error) {
	var out []TenantConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		tc := TenantConfig{Name: fields[0], Policy: defPolicy}
		if tc.Name == "" {
			return nil, fmt.Errorf("ingest: tenant entry %q has no name", part)
		}
		if len(fields) > 1 && fields[1] != "" {
			r, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("ingest: tenant %q rate %q invalid", tc.Name, fields[1])
			}
			tc.Rate = r
		}
		if len(fields) > 2 && fields[2] != "" {
			b, err := strconv.Atoi(fields[2])
			if err != nil || b < 0 {
				return nil, fmt.Errorf("ingest: tenant %q burst %q invalid", tc.Name, fields[2])
			}
			tc.Burst = b
		}
		if len(fields) > 3 && fields[3] != "" {
			p, err := ParsePolicy(fields[3])
			if err != nil {
				return nil, err
			}
			tc.Policy = p
		}
		if len(fields) > 4 && fields[4] != "" {
			switch strings.ToLower(fields[4]) {
			case "guaranteed", "gold":
				tc.Guaranteed = true
			case "besteffort", "best-effort":
			default:
				return nil, fmt.Errorf("ingest: tenant %q class %q invalid (guaranteed, besteffort)", tc.Name, fields[4])
			}
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, errors.New("ingest: empty tenant spec")
	}
	return out, nil
}

var _ graph.Source = (*Server)(nil)
