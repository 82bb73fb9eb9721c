package xport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"streams/internal/tuple"
)

// scriptConn is a net.Conn whose reads replay a fixed peer script and
// whose writes are discarded. After the script, reads see EOF or, with
// hold set, block until Close, like a peer that stays connected but
// silent. Deadlines are accepted and ignored.
type scriptConn struct {
	r         *bytes.Reader
	hold      bool
	closed    chan struct{}
	closeOnce sync.Once
}

func newScriptConn(script []byte, hold bool) *scriptConn {
	return &scriptConn{r: bytes.NewReader(script), hold: hold, closed: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.r.Len() > 0 {
		return c.r.Read(p)
	}
	if c.hold {
		<-c.closed
		return 0, net.ErrClosed
	}
	return 0, io.EOF
}

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *scriptConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptExport returns an Export whose first dial reaches a scripted
// peer and whose later dials fail, with a retry budget short enough
// that a lost connection latches Err at once.
func scriptExport(script []byte, hold bool, drain time.Duration) *Export {
	dialed := false
	return NewExportWith("Export[script]", func() (net.Conn, error) {
		if dialed {
			return nil, errors.New("peer gone")
		}
		dialed = true
		return newScriptConn(script, hold), nil
	}, Options{RetryBudget: time.Millisecond, BackoffMin: time.Millisecond, BackoffMax: time.Millisecond, DrainTimeout: drain})
}

// offer sends the exporter's side of a short stream: three data tuples,
// a window mark and, through Finish, final punctuation.
const offered = 5

func offer(e *Export) {
	for i := uint64(0); i < 3; i++ {
		e.Process(nil, tuple.NewData(i), 0)
	}
	e.OnPunct(nil, tuple.WindowMark, 0)
	e.Finish(nil)
}

// checkExport asserts the Export's accounting invariants after Finish:
// the peer's position never passes the frames sent, nothing is dropped
// beyond what was offered, and a nil Err means every frame was
// acknowledged.
func checkExport(t *testing.T, e *Export) {
	t.Helper()
	acked, sent, dropped := e.acked.Load(), e.Sent(), e.Dropped()
	if acked > sent {
		t.Errorf("acked %d beyond %d frames sent", acked, sent)
	}
	if sent > offered || dropped > offered {
		t.Errorf("sent %d, dropped %d of %d frames offered", sent, dropped, offered)
	}
	if e.Err() == nil && acked != sent {
		t.Errorf("Finish drained cleanly with %d of %d frames acknowledged", acked, sent)
	}
}

func ackBytes(positions ...uint64) []byte {
	var b []byte
	for _, p := range positions {
		b = binary.BigEndian.AppendUint64(b, p)
	}
	return b
}

// TestExportRejectsOverAck: a peer that acknowledges frames it was never
// sent must not make Finish report a confirmed drain. The over-ack kills
// the connection; the peer cannot be redialed, so Err latches.
func TestExportRejectsOverAck(t *testing.T) {
	e := scriptExport(ackBytes(0, 1000), true, 2*time.Second)
	offer(e)
	if e.Err() == nil {
		t.Fatalf("Finish returned without error after the peer acknowledged %d of %d frames", e.acked.Load(), e.Sent())
	}
	checkExport(t, e)
}

// countingSubmitter counts the data tuples an Import submits.
type countingSubmitter struct{ data int }

func (c *countingSubmitter) Submit(t tuple.Tuple, _ int) {
	if t.Kind == tuple.Data {
		c.data++
	}
}

// expectServe decodes an exporter byte stream the way Import.serve
// should: the data tuples it submits, and whether the stream carries a
// protocol error (a bad preamble or frame) before final punctuation or
// its end.
func expectServe(b []byte) (data int, protoErr bool) {
	if len(b) < len(magic)+1 {
		return 0, false
	}
	if string(b[:len(magic)]) != magic || b[len(magic)] != version {
		return 0, true
	}
	for rest := b[len(magic)+1:]; len(rest) >= frameSize; rest = rest[frameSize:] {
		switch tuple.Kind(rest[0]) {
		case tuple.Data:
			data++
		case tuple.WindowMark:
		case tuple.FinalMark:
			return data, false
		default:
			return data, true
		}
	}
	return data, false
}

func frames(kinds ...tuple.Kind) []byte {
	b := []byte(magic + string(rune(version)))
	for i, k := range kinds {
		f := make([]byte, frameSize)
		EncodeFrame(f, tuple.Tuple{Kind: k, Seq: uint64(i)})
		b = append(b, f...)
	}
	return b
}

// FuzzLinkReaders drives both ends of an xport link with arbitrary
// bytes. peer is what the Export's resume handshake and ack reader see
// from a scripted peer; exporter is what Import.serve sees from a
// scripted exporter. Neither may panic; the Export must keep its
// accounting invariants (checkExport), and serve must submit exactly the
// data frames before the first bad frame or final punctuation and latch
// Err exactly for a bad preamble or frame.
func FuzzLinkReaders(f *testing.F) {
	f.Add(ackBytes(0, 1), frames(tuple.Data, tuple.WindowMark, tuple.Data, tuple.FinalMark))
	f.Add(ackBytes(0, 2, 1<<40), frames(tuple.Data, tuple.Kind(9), tuple.Data))
	f.Add(ackBytes(7), []byte("SPLX\x01"))
	f.Add([]byte{0, 0, 0}, frames(tuple.Data, tuple.Data)[:40])
	f.Fuzz(func(t *testing.T, peer, exporter []byte) {
		e := scriptExport(peer, false, 5*time.Millisecond)
		offer(e)
		checkExport(t, e)

		im := NewImport("Import[script]", nil)
		out := &countingSubmitter{}
		im.serve(newScriptConn(exporter, false), out, make(chan struct{}))
		data, protoErr := expectServe(exporter)
		if out.data != data || im.Received() != uint64(data) {
			t.Errorf("serve submitted %d data tuples (Received %d), want %d", out.data, im.Received(), data)
		}
		if (im.Err() != nil) != protoErr {
			t.Errorf("serve Err %v, want a protocol error: %v", im.Err(), protoErr)
		}
	})
}
