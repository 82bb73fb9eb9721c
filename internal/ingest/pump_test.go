package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streams/internal/tuple"
	"streams/internal/xport"
)

// countSubmitter is the pump's runtime stand-in: it counts what the
// pump submits and hands each tuple to onTuple, if set.
type countSubmitter struct {
	n       atomic.Uint64
	onTuple func(tuple.Tuple)
}

func (c *countSubmitter) Submit(t tuple.Tuple, _ int) {
	c.n.Add(1)
	if c.onTuple != nil {
		c.onTuple(t)
	}
}

// runPump starts the server's pump on sub and returns the function that
// stops it and waits for it to return.
func runPump(s *Server, sub *countSubmitter) (stop func()) {
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(sub, stopCh)
	}()
	return func() {
		close(stopCh)
		<-done
	}
}

// TestPumpKickWakesIdlePump: clients send one frame at a time over TCP,
// each aimed at the moment the pump has announced idle, and wait for the
// frame to reach the runtime before sending the next. Every frame must
// arrive within kickBound. The idle pump's timer alone would also meet
// that bound, so this test guards the kick only together with its
// mutant: with wakePump's send removed and pumpIdleWait raised to 1 s,
// the first frame admitted after the pump went to sleep waits out the
// timer and the test fails.
func TestPumpKickWakesIdlePump(t *testing.T) {
	const (
		readers   = 4
		perReader = 200
		kickBound = 250 * time.Millisecond
	)
	s, err := NewServer(Config{Tenants: []TenantConfig{{Name: "a", Policy: Block}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	arrived := make([]chan uint64, readers)
	for i := range arrived {
		arrived[i] = make(chan uint64, 1)
	}
	sub := &countSubmitter{onTuple: func(tp tuple.Tuple) { arrived[tp.Words[0]] <- tp.Words[1] }}
	stop := runPump(s, sub)
	defer stop()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		c, err := Dial(s.Addr(), "a")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, c *Client) {
			defer wg.Done()
			defer c.Close()
			for i := uint64(0); i < perReader; i++ {
				// Aim at the window the handshake closes: send just as the
				// pump has announced idle.
				for spins := 0; !s.pumpIdle.Load() && spins < 1000; spins++ {
					runtime.Gosched()
				}
				err := c.Send(tuple.NewData(uint64(r), i))
				if err == nil {
					err = c.Flush()
				}
				if err != nil {
					t.Errorf("client %d: %v", r, err)
					return
				}
				select {
				case got := <-arrived[r]:
					if got != i {
						t.Errorf("client %d: tuple %d arrived, want %d", r, got, i)
						return
					}
				case <-time.After(kickBound):
					t.Errorf("client %d tuple %d: not pumped within %v of sending", r, i, kickBound)
					return
				}
			}
		}(r, c)
	}
	wg.Wait()
	if got := sub.n.Load(); got != readers*perReader && !t.Failed() {
		t.Fatalf("pump submitted %d tuples, want %d", got, readers*perReader)
	}
}

// fuzzConn is one client connection whose bytes are the fuzz input;
// responses are discarded and deadlines do not apply.
type fuzzConn struct{ r *bytes.Reader }

func (c *fuzzConn) Read(b []byte) (int, error)       { return c.r.Read(b) }
func (c *fuzzConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

// fuzzTenants covers every disposition: a lossless Block tenant, a
// policed shed-newest tenant (throttled), and a small shed-oldest queue
// (victims).
var fuzzTenants = []TenantConfig{
	{Name: "a", Policy: Block, QueueCap: 64},
	{Name: "b", Policy: ShedNewest, Rate: 1000, Burst: 16, QueueCap: 16},
	{Name: "c", Policy: ShedOldest, QueueCap: 16},
}

// fuzzExpect reads the input the way the wire protocol (package comment,
// http.go) defines it and returns how many tuple frames a server must
// offer to admission and how many structural rejections it must count.
func fuzzExpect(data []byte) (offered, rejected uint64) {
	known := func(name string) bool {
		for _, tc := range fuzzTenants {
			if tc.Name == name {
				return true
			}
		}
		return false
	}
	if len(data) < len(magic) {
		return 0, 0
	}
	if string(data[:len(magic)]) == magic {
		const pre = len(magic) + 1 + 2
		if len(data) < pre || data[len(magic)] != version {
			return 0, 1
		}
		n := int(binary.BigEndian.Uint16(data[len(magic)+1:]))
		if n == 0 || n > maxTenantName || len(data) < pre+n || !known(string(data[pre:pre+n])) {
			return 0, 1
		}
		for body := data[pre+n:]; len(body) >= xport.FrameSize; body = body[xport.FrameSize:] {
			t, err := xport.DecodeFrame(body[:xport.FrameSize])
			if err != nil {
				return offered, 1
			}
			if t.Kind == tuple.FinalMark {
				break
			}
			offered++
		}
		return offered, 0
	}
	br := bufio.NewReaderSize(bytes.NewReader(data), 16<<10) // serve's reader
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return offered, rejected
		}
		keep := false
		switch {
		case req.Method == http.MethodPost && req.URL.Path == "/ingest":
			if !known(req.URL.Query().Get("tenant")) {
				rejected++
				break
			}
			var buf [xport.FrameSize]byte
			keep = true
			for keep {
				if _, err := io.ReadFull(req.Body, buf[:]); err != nil {
					if err != io.EOF {
						rejected++
						keep = false
					}
					break
				}
				t, err := xport.DecodeFrame(buf[:])
				if err != nil {
					rejected++
					keep = false
				} else if t.Kind != tuple.FinalMark {
					offered++
				}
			}
			keep = keep && req.ProtoAtLeast(1, 1) && !req.Close
		case req.Method == http.MethodGet && req.URL.Path == "/ingest/stats":
			keep = true
		}
		req.Body.Close()
		if !keep {
			return offered, rejected
		}
	}
}

// FuzzServeConn drives arbitrary bytes through one connection — the
// SPLN/HTTP sniff, the preamble or request, then frames — with the pump
// running. Every input must be rejected or admitted without a panic,
// and the disposition counters must conserve: each frame the protocol
// offers ends admitted into the runtime, shed or throttled, and the
// rejections are exactly the structural ones.
func FuzzServeConn(f *testing.F) {
	frames := func(kinds ...tuple.Kind) []byte {
		var b []byte
		var buf [xport.FrameSize]byte
		for i, k := range kinds {
			xport.EncodeFrame(buf[:], tuple.Tuple{Kind: k, Seq: uint64(i + 1), Words: [tuple.PayloadWords]uint64{uint64(i)}})
			b = append(b, buf[:]...)
		}
		return b
	}
	preamble := func(name string) []byte {
		b := append([]byte(magic), version, 0, byte(len(name)))
		return append(b, name...)
	}
	body := frames(tuple.Data, tuple.Data, tuple.WindowMark, tuple.Data, tuple.FinalMark)
	post := func(ten string, body []byte) []byte {
		return append([]byte(fmt.Sprintf("POST /ingest?tenant=%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", ten, len(body))), body...)
	}
	f.Add(append(preamble("a"), body...))
	f.Add(append(preamble("b"), frames(tuple.Data, tuple.Data, tuple.Data, tuple.Data)...))
	f.Add(append(preamble("nope"), body...))
	f.Add(append(preamble("c"), 0xff))
	f.Add(post("a", body))
	f.Add(append(post("c", body), post("b", frames(tuple.Data))...))
	f.Add([]byte("GET /ingest/stats HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.0\r\n\r\n"))
	f.Add([]byte("SPL"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewServer(Config{Tenants: fuzzTenants})
		if err != nil {
			t.Fatal(err)
		}
		sub := &countSubmitter{}
		stop := runPump(s, sub)
		conn := &fuzzConn{r: bytes.NewReader(data)}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.openConns.Add(1)
		s.connMu.Unlock()
		s.serve(conn, 1)
		stop()

		offered, rejected := fuzzExpect(data)
		m := s.met.Snapshot()
		if got := m.Admitted + m.Shed + m.Throttled; got != offered {
			t.Fatalf("admitted %d + shed %d + throttled %d = %d, want the %d offered frames",
				m.Admitted, m.Shed, m.Throttled, got, offered)
		}
		if m.Rejected != rejected {
			t.Fatalf("rejected %d, want %d", m.Rejected, rejected)
		}
		if got := sub.n.Load(); got != m.Admitted {
			t.Fatalf("runtime received %d tuples, admission charged %d", got, m.Admitted)
		}
		for _, tn := range s.tenants {
			if d := tn.depth(); d != 0 {
				t.Fatalf("tenant %s still holds %d after the drain", tn.cfg.Name, d)
			}
		}
	})
}
