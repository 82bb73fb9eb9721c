// Package xport connects processing elements over the network, the way
// IBM Streams runs distributed applications: streams that cross PE
// boundaries are serialized onto TCP connections, and each PE input port
// has its own thread that receives data, deserializes tuples, and
// executes the receiving operators (§2.3 — one more kind of thread the
// operator scheduler does not control but must coexist with).
//
// An Export operator terminates a stream in one PE and writes
// length-delimited tuple frames to a connection; an Import source opens
// the peer PE's side, reading frames and submitting tuples. Final
// punctuation travels in-band, so a bounded upstream PE drains its
// downstream PE exactly like a fused graph would.
//
// # Fault containment
//
// The v2 protocol survives connection loss without losing or duplicating
// tuples. Frames carry no sequence numbers on the wire; instead position
// is implicit in TCP's ordering and re-established on reconnect by a
// resume handshake: the Import, after validating the preamble, tells the
// Export how many frames it has fully processed, and the Export replays
// its retained unacknowledged tail from exactly that offset. The Import
// acknowledges its cumulative processed count every ackEvery frames (and
// on final punctuation), which lets the Export prune its retain buffer;
// because the Export never prunes past the last ack and the Import never
// acknowledges an unprocessed frame, the replay window always covers
// whatever a dying connection swallowed. Reconnection uses capped
// exponential backoff with jitter under a total retry budget; exhausting
// the budget latches an error naming the export and counts the unacked
// frames as dropped. Export.Finish waits (bounded by DrainTimeout) for
// the final frame's acknowledgement, so a clean drain is end-to-end
// confirmed, not just locally flushed.
package xport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/tuple"
)

// Wire format: a fixed preamble per connection, then frames one way and
// cumulative acks the other.
//
//	preamble: "SPLX" version(1)            export → import
//	resume:   processed(8)                 import → export, once per conn
//	frame:    kind(1) seq(8) words(8×8)    export → import
//	ack:      processed(8)                 import → export
//
// Tuple.Ref is not transmitted: like the product, typed payloads need
// per-type serializers, and the evaluation workloads carry their payload
// in the inline words.
const (
	magic      = "SPLX"
	version    = 2
	frameSize  = 1 + 8 + 8*tuple.PayloadWords
	ioDeadline = 200 * time.Millisecond
	// ackEvery is the import-side acknowledgement cadence: one cumulative
	// position ack per this many processed frames, plus one on final
	// punctuation so the exporter's drain wait completes promptly.
	ackEvery = 64
	// ackDeadline bounds an 8-byte ack write; a peer that cannot absorb
	// it is treated as a dead connection.
	ackDeadline = 2 * time.Second
	// pruneBytes is how much acknowledged prefix the retain buffer
	// accumulates before compacting.
	pruneBytes = 64 << 10
)

// FrameSize is the encoded size of one frame: kind byte, sequence
// number, payload words. Exported so other wire front ends (ingest)
// can reuse EncodeFrame/DecodeFrame with correctly-sized buffers.
const FrameSize = frameSize

// EncodeFrame serializes t into buf (which must hold frameSize bytes).
func EncodeFrame(buf []byte, t tuple.Tuple) {
	buf[0] = byte(t.Kind)
	binary.BigEndian.PutUint64(buf[1:9], t.Seq)
	for i, w := range t.Words {
		binary.BigEndian.PutUint64(buf[9+8*i:], w)
	}
}

// DecodeFrame deserializes a frame.
func DecodeFrame(buf []byte) (tuple.Tuple, error) {
	var t tuple.Tuple
	if len(buf) < frameSize {
		return t, fmt.Errorf("xport: short frame (%d bytes)", len(buf))
	}
	k := tuple.Kind(buf[0])
	switch k {
	case tuple.Data, tuple.WindowMark, tuple.FinalMark:
		t.Kind = k
	default:
		return t, fmt.Errorf("xport: unknown tuple kind %d", buf[0])
	}
	t.Seq = binary.BigEndian.Uint64(buf[1:9])
	for i := range t.Words {
		t.Words[i] = binary.BigEndian.Uint64(buf[9+8*i:])
	}
	return t, nil
}

// Options tunes an Export's reconnect and drain behavior. The zero value
// selects the defaults noted per field.
type Options struct {
	// RetryBudget is the total time send may spend redialing one outage
	// before giving up and latching an error (default 15s).
	RetryBudget time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential backoff
	// between dial attempts (defaults 10ms / 1s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// HandshakeTimeout bounds the preamble write and resume read on a
	// fresh connection (default 2s).
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each frame write or flush (default 5s).
	WriteTimeout time.Duration
	// DrainTimeout bounds Finish's wait for the peer to acknowledge the
	// final frame (default 10s).
	DrainTimeout time.Duration
	// Fault optionally injects connection drops and write latency at the
	// send seam (sites ConnDrop, ConnLatency). Nil means no injection.
	Fault *fault.Injector
}

func (o Options) withDefaults() Options {
	if o.RetryBudget == 0 {
		o.RetryBudget = 15 * time.Second
	}
	if o.BackoffMin == 0 {
		o.BackoffMin = 10 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = time.Second
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 2 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// errNoResume marks a handshake whose resume position falls outside the
// retained window — the peer lost its position state (e.g. restarted),
// so retrying cannot help.
var errNoResume = errors.New("xport: peer position not resumable")

// Export is a sink operator that forwards every tuple to a peer PE over
// a connection, retaining unacknowledged frames so a dropped connection
// can be resumed without loss. Its local state is lock-protected because
// under the dynamic model any thread may execute it.
type Export struct {
	name string
	dial func() (net.Conn, error)
	opt  Options

	mu       sync.Mutex
	conn     net.Conn
	bw       *bufio.Writer
	connDead bool
	err      error

	// retain holds the frames [retainBase, xseq) back to back; everything
	// at an index ≥ the peer's last ack may need replaying.
	retain     []byte
	retainBase uint64
	// xseq counts frames enqueued (data and punctuation, replays
	// excluded); written tracks the highest frame handed to a connection
	// at least once, so replays can be told apart from first sends.
	xseq    uint64
	written uint64

	everConnected bool
	reconnects    uint64
	resent        uint64
	dropped       uint64
	jit           uint64

	// acked is the peer's cumulative processed count, advanced by the
	// per-connection ack reader, which checks each ack against xseq under mu
	// but advances acked without it.
	acked atomic.Uint64
}

// NewExport returns an Export with default Options that lazily dials its
// peer on the first tuple. Name is diagnostic and should identify the PE
// pair the export bridges.
func NewExport(name string, dial func() (net.Conn, error)) *Export {
	return NewExportWith(name, dial, Options{})
}

// jitEntropy decorrelates export jitter states across exports and across
// process runs. Seeding from the name alone would make every export's
// retry schedule a pure function of its name, so two links dropped by
// the same outage — or the same link across restarts — would redial in
// lockstep, which is exactly the thundering herd jitter exists to break.
var jitEntropy atomic.Uint64

// NewExportWith is NewExport with explicit Options.
func NewExportWith(name string, dial func() (net.Conn, error), opt Options) *Export {
	e := &Export{name: name, dial: dial, opt: opt.withDefaults()}
	for _, c := range name {
		e.jit = e.jit*31 + uint64(c)
	}
	e.jit ^= uint64(time.Now().UnixNano()) * 0x9e3779b97f4a7c15
	e.jit ^= jitEntropy.Add(0x6a09e667f3bcc909)
	e.jit |= 1
	return e
}

// Name implements graph.Operator.
func (e *Export) Name() string { return e.name }

// Sent returns the number of frames enqueued for the peer (including
// punctuation, excluding reconnect replays).
func (e *Export) Sent() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.xseq
}

// Reconnects returns how many times the export re-established its
// connection after losing one.
func (e *Export) Reconnects() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reconnects
}

// Resent returns how many frames were replayed on reconnects.
func (e *Export) Resent() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resent
}

// Dropped returns how many frames were abandoned after the retry budget
// ran out (0 unless Err is non-nil).
func (e *Export) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// Err returns the first unrecoverable transport error, if any.
func (e *Export) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Process implements graph.Operator.
func (e *Export) Process(_ graph.Submitter, t tuple.Tuple, _ int) {
	e.send(t)
}

// OnPunct implements graph.Puncts: window marks travel in-band. (Final
// marks are sent by Finish so they are emitted exactly once, after all
// data.)
func (e *Export) OnPunct(_ graph.Submitter, k tuple.Kind, _ int) {
	if k == tuple.WindowMark {
		e.send(tuple.Window())
	}
}

// Finish implements graph.Finalizer: send the final punctuation, then
// wait — reconnecting if necessary, bounded by DrainTimeout — until the
// peer has acknowledged every frame, and close.
func (e *Export) Finish(graph.Submitter) {
	e.send(tuple.Final())
	e.mu.Lock()
	if e.err == nil && e.bw != nil && !e.connDead {
		if err := e.flushLocked(); err != nil {
			e.connDead = true
		}
	}
	e.mu.Unlock()
	deadline := time.Now().Add(e.opt.DrainTimeout)
	for {
		e.mu.Lock()
		if e.err != nil || e.acked.Load() >= e.xseq {
			e.closeLocked()
			e.mu.Unlock()
			return
		}
		if e.connDead || e.conn == nil {
			if !e.reconnectLocked() {
				e.closeLocked()
				e.mu.Unlock()
				return
			}
		}
		e.mu.Unlock()
		if !time.Now().Before(deadline) {
			e.mu.Lock()
			if e.err == nil {
				e.err = fmt.Errorf("xport: export %s: drain deadline %v expired with %d of %d frames unacknowledged",
					e.name, e.opt.DrainTimeout, e.xseq-e.acked.Load(), e.xseq)
			}
			e.closeLocked()
			e.mu.Unlock()
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *Export) send(t tuple.Tuple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		e.dropped++
		return
	}
	if inj := e.opt.Fault; inj.Enabled() {
		if inj.Should(fault.ConnLatency) {
			time.Sleep(inj.Delay(fault.ConnLatency))
		}
		if e.conn != nil && inj.Should(fault.ConnDrop) {
			// Simulate a peer reset: the closed socket fails the next
			// write or flush, driving the reconnect path below.
			e.conn.Close()
			e.connDead = true
		}
	}
	// Retain before writing: position accounting must already cover this
	// frame when a write fails and the handshake replays the tail.
	e.pruneLocked()
	off := len(e.retain)
	e.retain = append(e.retain, make([]byte, frameSize)...)
	EncodeFrame(e.retain[off:], t)
	e.xseq++
	if e.conn != nil && !e.connDead {
		// bufio flushes on a full buffer; flush eagerly on punctuation
		// and every 128 frames so slow streams keep bounded latency.
		err := e.writeLocked(e.retain[off:off+frameSize], t.IsPunct() || e.xseq%128 == 0)
		if err == nil {
			e.written = e.xseq
			return
		}
		e.connDead = true
	}
	// The handshake replays every unacknowledged frame, this one
	// included; failure latches e.err.
	e.reconnectLocked()
}

// writeLocked writes p through the buffered writer under the write
// deadline, flushing if asked.
func (e *Export) writeLocked(p []byte, flush bool) error {
	if err := e.conn.SetWriteDeadline(time.Now().Add(e.opt.WriteTimeout)); err != nil {
		return err
	}
	if _, err := e.bw.Write(p); err != nil {
		return err
	}
	if flush {
		return e.bw.Flush()
	}
	return nil
}

func (e *Export) flushLocked() error {
	if err := e.conn.SetWriteDeadline(time.Now().Add(e.opt.WriteTimeout)); err != nil {
		return err
	}
	return e.bw.Flush()
}

// pruneLocked compacts the acknowledged prefix of the retain buffer once
// it exceeds pruneBytes, so a long-lived export retains O(unacked)
// frames, not O(stream).
func (e *Export) pruneLocked() {
	acked := e.acked.Load()
	n := acked - e.retainBase
	if n*frameSize < pruneBytes {
		return
	}
	fresh := make([]byte, len(e.retain)-int(n)*frameSize)
	copy(fresh, e.retain[int(n)*frameSize:])
	e.retain = fresh
	e.retainBase = acked
}

// reconnectLocked (re)establishes the connection with capped, jittered
// exponential backoff under the retry budget, replaying unacknowledged
// frames through the resume handshake. It reports success; on failure
// the error is latched and unacked frames are counted dropped.
func (e *Export) reconnectLocked() bool {
	if e.conn != nil {
		e.conn.Close()
		e.conn, e.bw = nil, nil
	}
	e.connDead = false
	deadline := time.Now().Add(e.opt.RetryBudget)
	backoff := e.opt.BackoffMin
	var lastErr error
	for {
		conn, err := e.dial()
		if err == nil {
			if err = e.handshakeLocked(conn); err == nil {
				return true
			}
			conn.Close()
			if errors.Is(err, errNoResume) {
				lastErr = err
				break
			}
		}
		lastErr = err
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(e.jittered(backoff))
		if backoff *= 2; backoff > e.opt.BackoffMax {
			backoff = e.opt.BackoffMax
		}
	}
	unacked := e.xseq - e.acked.Load()
	e.dropped += unacked
	e.err = fmt.Errorf("xport: export %s: giving up after %v of reconnect attempts (%d unacked frames dropped): %w",
		e.name, e.opt.RetryBudget, unacked, lastErr)
	return false
}

// handshakeLocked runs the v2 preamble/resume exchange on a fresh
// connection and replays the tail the peer has not processed. On success
// the connection is installed and its ack reader started.
func (e *Export) handshakeLocked(conn net.Conn) error {
	hs := time.Now().Add(e.opt.HandshakeTimeout)
	if err := conn.SetWriteDeadline(hs); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(conn, 64*1024)
	bw.WriteString(magic)
	bw.WriteByte(version)
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(hs); err != nil {
		return err
	}
	var rb [8]byte
	if _, err := io.ReadFull(conn, rb[:]); err != nil {
		return fmt.Errorf("resume handshake: %w", err)
	}
	resume := binary.BigEndian.Uint64(rb[:])
	if resume < e.retainBase || resume > e.xseq {
		return fmt.Errorf("%w: peer resumes at frame %d, retained [%d, %d)",
			errNoResume, resume, e.retainBase, e.xseq)
	}
	// The resume position is also an ack: the previous connection's ack
	// stream may have died before reporting this far.
	e.ackTo(resume)
	if tail := e.retain[(resume-e.retainBase)*frameSize:]; len(tail) > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(e.opt.WriteTimeout)); err != nil {
			return err
		}
		if _, err := bw.Write(tail); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if e.written > resume {
			e.resent += e.written - resume
		}
	}
	e.written = e.xseq
	if e.everConnected {
		e.reconnects++
	} else {
		e.everConnected = true
	}
	// The ack reader owns reads from here on; clear the handshake read
	// deadline so it blocks until data or close.
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	e.conn, e.bw = conn, bw
	e.connDead = false
	go e.ackLoop(conn)
	return nil
}

// ackLoop reads cumulative acks from one connection until it dies,
// marking the connection dead if it is still the current one. An ack
// beyond the frames sent is a protocol error that kills the connection
// too: the peer acknowledges frames it cannot have processed, so the
// resume handshake, not the ack, must decide where the stream stands.
func (e *Export) ackLoop(conn net.Conn) {
	var buf [8]byte
	for {
		_, err := io.ReadFull(conn, buf[:])
		a := binary.BigEndian.Uint64(buf[:])
		e.mu.Lock()
		if err != nil || a > e.xseq {
			if e.conn == conn {
				e.connDead = true
			}
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.mu.Unlock()
		e.ackTo(a)
	}
}

// ackTo advances acked monotonically (acks from an old connection may
// race a newer resume position). Callers have checked a against xseq,
// so acked never passes the frames sent.
func (e *Export) ackTo(a uint64) {
	for {
		cur := e.acked.Load()
		if a <= cur || e.acked.CompareAndSwap(cur, a) {
			return
		}
	}
}

func (e *Export) closeLocked() {
	if e.conn != nil {
		e.conn.Close()
		e.conn, e.bw = nil, nil
	}
}

// jittered returns a duration in [d/2, d) from the export's xorshift
// state, decorrelating concurrent exports' retry storms.
func (e *Export) jittered(d time.Duration) time.Duration {
	x := e.jit
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.jit = x
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + x%half)
}

// Import is a source operator that accepts upstream connections — across
// reconnects — and replays their tuples into the local PE exactly once.
// Its Run loop is the paper's "PE input port thread": receive,
// deserialize, execute downstream operators (via the scheduler's
// submitter).
type Import struct {
	name string
	ln   net.Listener

	// processed counts frames fully handled across all connections; it is
	// the resume position offered to a reconnecting exporter and is only
	// touched by the Run goroutine.
	processed uint64

	mu       sync.Mutex
	received uint64
	accepts  uint64
	err      error
}

// NewImport returns an Import accepting from ln. The Import owns the
// listener and closes it when Run returns.
func NewImport(name string, ln net.Listener) *Import {
	return &Import{name: name, ln: ln}
}

// Name implements graph.Operator.
func (im *Import) Name() string { return im.name }

// Process implements graph.Operator; sources receive no input.
func (im *Import) Process(graph.Submitter, tuple.Tuple, int) {}

// Received returns the number of data tuples submitted locally.
func (im *Import) Received() uint64 {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.received
}

// Accepts returns how many upstream connections were served.
func (im *Import) Accepts() uint64 {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.accepts
}

// Err returns the first protocol error, if any. Transport errors are not
// reported here: they are survivable (the exporter reconnects and
// resumes), so the import just re-accepts.
func (im *Import) Err() error {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.err
}

func (im *Import) setErr(err error) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if im.err == nil {
		im.err = err
	}
}

// Run implements graph.Source: accept a connection, serve it until final
// punctuation or failure, and — because a broken connection is the
// exporter's problem to redial — keep accepting until the stream
// actually finishes, a protocol error latches, or stop closes.
func (im *Import) Run(out graph.Submitter, stop <-chan struct{}) {
	defer im.ln.Close()
	for {
		conn, err := im.accept(stop)
		if err != nil {
			if !errors.Is(err, errStopped) {
				im.setErr(err)
			}
			return
		}
		im.mu.Lock()
		im.accepts++
		im.mu.Unlock()
		done := im.serve(conn, out, stop)
		conn.Close()
		if done {
			return
		}
	}
}

// serve handles one connection. It reports true when Run should return
// (final punctuation, stop, or an unrecoverable protocol error) and
// false on a transport failure the exporter can repair by reconnecting.
func (im *Import) serve(conn net.Conn, out graph.Submitter, stop <-chan struct{}) (done bool) {
	br := bufio.NewReaderSize(conn, 64*1024)
	var pre [len(magic) + 1]byte
	if err := im.readFull(conn, br, pre[:], stop); err != nil {
		// A peer that dies before completing the preamble is a transport
		// casualty, not a protocol violation; await its reconnect.
		return errors.Is(err, errStopped)
	}
	if string(pre[:len(magic)]) != magic || pre[len(magic)] != version {
		im.setErr(fmt.Errorf("xport: import %s: bad preamble %q v%d", im.name, pre[:len(magic)], pre[len(magic)]))
		return true
	}
	// Resume handshake: tell the exporter how many frames are already
	// processed so it replays exactly the rest.
	if err := im.writeAck(conn); err != nil {
		return false
	}
	var buf [frameSize]byte
	for {
		if err := im.readFull(conn, br, buf[:], stop); err != nil {
			return errors.Is(err, errStopped)
		}
		t, err := DecodeFrame(buf[:])
		if err != nil {
			im.setErr(err)
			return true
		}
		// Submit before counting the frame processed: a frame is only
		// resumable-past once its tuple is locally owned.
		switch t.Kind {
		case tuple.FinalMark:
			// Upstream PE drained. Acknowledge the final frame so the
			// exporter's drain wait completes; the PE emits local final
			// punctuation when Run returns.
			im.processed++
			_ = im.writeAck(conn)
			return true
		case tuple.WindowMark:
			out.Submit(tuple.Window(), 0)
		default:
			im.mu.Lock()
			im.received++
			im.mu.Unlock()
			out.Submit(t, 0)
		}
		im.processed++
		if im.processed%ackEvery == 0 {
			if err := im.writeAck(conn); err != nil {
				return false
			}
		}
	}
}

// writeAck sends the cumulative processed count upstream; it doubles as
// the resume position at connection start.
func (im *Import) writeAck(conn net.Conn) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], im.processed)
	if err := conn.SetWriteDeadline(time.Now().Add(ackDeadline)); err != nil {
		return err
	}
	_, err := conn.Write(b[:])
	return err
}

var errStopped = errors.New("xport: stopped")

// accept waits for the upstream connection, polling stop.
func (im *Import) accept(stop <-chan struct{}) (net.Conn, error) {
	for {
		select {
		case <-stop:
			return nil, errStopped
		default:
		}
		if d, ok := im.ln.(interface{ SetDeadline(time.Time) error }); ok {
			if err := d.SetDeadline(time.Now().Add(ioDeadline)); err != nil {
				return nil, err
			}
		}
		conn, err := im.ln.Accept()
		if err == nil {
			return conn, nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			continue
		}
		return nil, err
	}
}

// readFull fills buf from br, renewing deadlines and honoring stop.
func (im *Import) readFull(conn net.Conn, br *bufio.Reader, buf []byte, stop <-chan struct{}) error {
	got := 0
	for got < len(buf) {
		select {
		case <-stop:
			return errStopped
		default:
		}
		if err := conn.SetReadDeadline(time.Now().Add(ioDeadline)); err != nil {
			return err
		}
		n, err := br.Read(buf[got:])
		got += n
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if errors.Is(err, io.EOF) && got > 0 && got < len(buf) {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

var (
	_ graph.Source = (*Import)(nil)
	_ graph.Puncts = (*Export)(nil)
)
