// Package cpuutil implements the elasticity controller's CPU-usage gate:
// before increasing the thread level, the PE checks that total system CPU
// usage is acceptable so multiple greedy PEs do not oversubscribe a host
// (§4.2.3). IBM Streams reads /proc/stat and refuses to grow past 80%
// of system capacity; we do the same, behind an interface so the machine
// simulator and the tests can substitute their own readings.
package cpuutil

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// UsageFunc reports total system CPU usage in [0, 1]. Implementations
// must be safe for concurrent use.
type UsageFunc func() (float64, error)

// DefaultThreshold is the usage fraction above which the thread level
// must not grow, matching the product's 80% rule.
const DefaultThreshold = 0.80

// Gate answers isCPUUsageAcceptable() questions against a UsageFunc.
type Gate struct {
	usage     UsageFunc
	threshold float64
}

// NewGate builds a gate from a usage source and threshold. A nil usage
// source selects the /proc/stat reader; a non-positive threshold selects
// DefaultThreshold.
func NewGate(usage UsageFunc, threshold float64) *Gate {
	if usage == nil {
		usage = ProcStatUsage()
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Gate{usage: usage, threshold: threshold}
}

// Acceptable reports whether CPU usage permits adding threads. Errors
// reading usage fail open (allow growth): a PE that cannot observe the
// system behaves like pre-elastic Streams rather than refusing to scale.
func (g *Gate) Acceptable() bool {
	u, err := g.usage()
	if err != nil {
		return true
	}
	return u < g.threshold
}

// ProcStatUsage returns a UsageFunc that computes total CPU usage from
// consecutive /proc/stat aggregate lines. The first call has no baseline
// and reports 0. The reader keeps its file handle and read buffer
// between samples, so the per-sample adaptation tick allocates nothing.
func ProcStatUsage() UsageFunc {
	r := &procStatReader{path: "/proc/stat"}
	return r.usage
}

// procStatReader samples a /proc/stat-format file without per-sample
// allocation: the file stays open (procfs reads re-snapshot on seek)
// and the read buffer is reused, growing once if the first sample
// overflows it.
type procStatReader struct {
	mu                  sync.Mutex
	path                string
	f                   *os.File
	buf                 []byte
	prevBusy, prevTotal uint64
}

func (r *procStatReader) usage() (float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	busy, total, err := r.sample()
	if err != nil {
		return 0, err
	}
	db, dt := busy-r.prevBusy, total-r.prevTotal
	first := r.prevTotal == 0
	r.prevBusy, r.prevTotal = busy, total
	if first || dt == 0 {
		return 0, nil
	}
	return float64(db) / float64(dt), nil
}

func (r *procStatReader) sample() (busy, total uint64, err error) {
	if r.f == nil {
		if r.f, err = os.Open(r.path); err != nil {
			return 0, 0, err
		}
	}
	if _, err = r.f.Seek(0, io.SeekStart); err != nil {
		// A handle that no longer seeks (e.g. the file was replaced
		// under us in a test) is reopened on the next sample.
		r.f.Close()
		r.f = nil
		return 0, 0, err
	}
	if r.buf == nil {
		r.buf = make([]byte, 8192)
	}
	n := 0
	for {
		m, rerr := r.f.Read(r.buf[n:])
		n += m
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, rerr
		}
		if n == len(r.buf) {
			r.buf = append(r.buf, make([]byte, len(r.buf))...)
		}
	}
	return parseStat(r.buf[:n])
}

// parseStat extracts busy and total jiffies from the first "cpu " line
// of /proc/stat content. Busy excludes idle and iowait. It scans the
// buffer in place instead of splitting it into per-field strings, so a
// read allocates nothing.
func parseStat(b []byte) (busy, total uint64, err error) {
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(line) < 4 || line[0] != 'c' || line[1] != 'p' || line[2] != 'u' || line[3] != ' ' {
			continue
		}
		rest := line[4:]
		nfields := 0
		for {
			for len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t' || rest[0] == '\r') {
				rest = rest[1:]
			}
			if len(rest) == 0 {
				break
			}
			var v uint64
			j := 0
			for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
				d := uint64(rest[j] - '0')
				if v > (math.MaxUint64-d)/10 {
					return 0, 0, fmt.Errorf("cpuutil: jiffy count overflows in %q", line)
				}
				v = v*10 + d
				j++
			}
			if j == 0 || (j < len(rest) && rest[j] != ' ' && rest[j] != '\t' && rest[j] != '\r') {
				return 0, 0, fmt.Errorf("cpuutil: bad field in %q", line)
			}
			rest = rest[j:]
			total += v
			// Fields: user nice system idle iowait irq softirq steal ...
			if nfields != 3 && nfields != 4 {
				busy += v
			}
			nfields++
		}
		if nfields < 4 {
			return 0, 0, fmt.Errorf("cpuutil: malformed cpu line %q", line)
		}
		return busy, total, nil
	}
	return 0, 0, fmt.Errorf("cpuutil: no aggregate cpu line found")
}

// Fixed returns a UsageFunc that always reports u; tests and the machine
// simulator use it.
func Fixed(u float64) UsageFunc {
	return func() (float64, error) { return u, nil }
}
