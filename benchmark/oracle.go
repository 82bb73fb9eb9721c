package main

// Correctness oracles. Every workload's outputs are compared with a
// reference that shares no code with the system under test; a
// difference is counted in failed tuples and makes the run exit
// non-zero (see oracle_test.go for the negative tests).

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// lineDigest is an order-independent digest of a multiset of lines: the
// count and the wrapping sum of the lines' FNV-1a hashes. @parallel
// replicas interleave their output, so order cannot be compared; a
// lost, duplicated or altered record changes the count or the sum.
type lineDigest struct {
	count uint64
	sum   uint64
}

func (d *lineDigest) addLine(s string) {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	d.count++
	d.sum += h
}

// diff returns how many records of got are missing, surplus or wrong
// with respect to the reference d.
func (d lineDigest) diff(got lineDigest) uint64 {
	return mismatch(d.count, got.count, d.sum == got.sum)
}

// digestWriter is the FileSink target of the SPL workloads: it digests
// the lines as they stream through (chunk boundaries fall anywhere) and
// feeds the sink-progress marks. FileSink writes under its own lock, so
// Write is never concurrent.
type digestWriter struct {
	lineDigest
	h    uint64
	mid  bool // inside a line
	sink *progress
}

func (w *digestWriter) Write(b []byte) (int, error) {
	h, lines := w.h, uint64(0)
	if !w.mid {
		h = fnvOffset
	}
	for _, c := range b {
		if c == '\n' {
			w.sum += h
			lines++
			h = fnvOffset
			continue
		}
		h = (h ^ uint64(c)) * fnvPrime
	}
	w.h, w.mid = h, len(b) > 0 && b[len(b)-1] != '\n'
	w.count += lines
	w.sink.add(lines)
	return len(b), nil
}

func (w *digestWriter) Close() error { return nil }

// sumWriter is spl_chain's FileSink target: every line is one decimal
// int64, and the oracle is the count and the sum of the column.
type sumWriter struct {
	count uint64
	sum   int64
	cur   int64
	neg   bool
	bad   uint64 // bytes that are not part of a decimal integer
	sink  *progress
}

func (w *sumWriter) Write(b []byte) (int, error) {
	lines := uint64(0)
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			w.cur = w.cur*10 + int64(c-'0')
		case c == '-':
			w.neg = true
		case c == '\n':
			if w.neg {
				w.cur = -w.cur
			}
			w.sum += w.cur
			w.cur, w.neg = 0, false
			lines++
		default:
			w.bad++
		}
	}
	w.count += lines
	w.sink.add(lines)
	return len(b), nil
}

func (w *sumWriter) Close() error { return nil }

// fifoCheck verifies one connection's tuples at the sink: Words[0] is
// the connection's own counter, so it must arrive strictly increasing
// (no duplicate, no reordering) and, on a connection that may not lose
// tuples, without gaps. The sink has one input port, so see is never
// concurrent.
type fifoCheck struct {
	lossless  bool
	next      uint64 // smallest counter value not yet seen
	delivered uint64
	reordered uint64 // duplicates and out-of-order arrivals
	gaps      uint64 // counter values skipped
}

func (f *fifoCheck) see(counter uint64) {
	f.delivered++
	switch {
	case counter < f.next:
		f.reordered++
		return
	case counter > f.next:
		f.gaps += counter - f.next
	}
	f.next = counter + 1
}

// failures is the number of owed tuples this connection got wrong,
// given how many it sent: reorderings always, gaps and a short tail
// only when the connection is lossless.
func (f *fifoCheck) failures(sent uint64) uint64 {
	n := f.reordered
	if f.lossless {
		n += f.gaps
		if f.next < sent {
			n += sent - f.next
		}
	}
	return n
}
