// Package lfq provides the lock-free queues underneath the dynamic
// scheduler: a bounded single-producer/single-consumer ring buffer used
// for operator input-port queues, a bounded multi-producer/multi-consumer
// queue used for the global free list of operator input ports, and the
// Enforcer wrapper that adds the producer/consumer try-locks from the
// paper's Figure 3.
//
// All queues are fixed size. The paper's runtime uses fixed-size queues
// to bound memory growth and induce back-pressure (§4.1.5); we follow the
// same design. Elements are stored by value, mirroring IBM Streams'
// stack-allocated tuples that are copied into queues.
package lfq

import (
	"fmt"
	"sync/atomic"
)

// cacheLinePad separates hot atomic fields so that the producer and
// consumer indices of a queue do not share a cache line. 128 bytes covers
// the spatial prefetcher pairing on modern x86 as well as Power8's
// 128-byte lines.
type cacheLinePad [128]byte

// SPSC is a bounded, lock-free, single-producer/single-consumer FIFO ring
// buffer. With exactly one producing goroutine and one consuming
// goroutine at any instant, Push and Pop are wait-free and need no
// compare-and-swap: the producer owns the tail index and the consumer
// owns the head index, each published with release stores and observed
// with acquire loads.
//
// The scheduler guarantees the single-producer/single-consumer property
// externally with the Enforcer try-locks; the queue itself does not check
// it.
//
// The ring is allocated by the first Push or PushN, so a queue nothing
// is ever pushed into (an idle port, or one whose tuples always run
// inline) costs only its header. The allocating producer publishes the
// ring with the same release store of the tail that publishes its first
// element, and the consumer reads the ring only after it has observed
// the tail move; Cap and Len never read it.
//
// Each side's index shares a cache line with that side's cached view of
// the other index, so a push or pop writes one line; the two sides'
// lines and the read-only ring header are kept apart by pads.
type SPSC[T any] struct {
	_        cacheLinePad
	head     atomic.Uint64 // next slot to pop; owned by the consumer
	tailSnap uint64        // consumer's cached view of tail
	_        cacheLinePad
	tail     atomic.Uint64 // next slot to push; owned by the producer
	headSnap uint64        // producer's cached view of head
	_        cacheLinePad
	mask     uint64
	buf      []T // nil until the first push
}

// NewSPSC returns an empty queue with capacity for exactly cap elements.
// cap must be a power of two and at least 1.
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity < 1 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("lfq: SPSC capacity %d is not a positive power of two", capacity))
	}
	return &SPSC[T]{mask: uint64(capacity - 1)}
}

// Cap returns the fixed capacity of the queue.
func (q *SPSC[T]) Cap() int { return int(q.mask) + 1 }

// Len returns a linearizable-at-some-instant count of queued elements.
// It is intended for monitoring; concurrent pushes and pops may change
// the true count before the caller uses the result.
func (q *SPSC[T]) Len() int {
	t := q.tail.Load()
	h := q.head.Load()
	if t < h { // torn read across the two loads; clamp
		return 0
	}
	return int(t - h)
}

// Push appends v and reports whether there was room. It must be called
// by at most one goroutine at a time (the producer).
func (q *SPSC[T]) Push(v T) bool {
	t := q.tail.Load()
	if t-q.headSnap > q.mask { // looks full; refresh the consumer index
		q.headSnap = q.head.Load()
		if t-q.headSnap > q.mask {
			return false
		}
	}
	if q.buf == nil { // first push: allocate the ring
		q.buf = make([]T, q.mask+1)
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

// PushN appends up to len(src) elements in order and returns how many it
// accepted (0 when the queue is full). The whole batch costs at most one
// acquire refresh of the consumer index and exactly one release store of
// the tail, against one pair per element for repeated Push calls. Like
// Push it must be called by at most one goroutine at a time (the
// producer).
func (q *SPSC[T]) PushN(src []T) int {
	t := q.tail.Load()
	capacity := q.mask + 1
	free := capacity - (t - q.headSnap)
	if uint64(len(src)) > free { // refresh the consumer index once
		q.headSnap = q.head.Load()
		free = capacity - (t - q.headSnap)
	}
	n := uint64(len(src))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	if q.buf == nil { // first push: allocate the ring
		q.buf = make([]T, capacity)
	}
	// The n slots starting at t wrap at most once; copy in two segments.
	start := t & q.mask
	first := capacity - start
	if first > n {
		first = n
	}
	copy(q.buf[start:start+first], src[:first])
	copy(q.buf[:n-first], src[first:n])
	q.tail.Store(t + n)
	return int(n)
}

// Pop removes the head element into *v and reports whether the queue was
// non-empty. It must be called by at most one goroutine at a time (the
// consumer).
func (q *SPSC[T]) Pop(v *T) bool {
	h := q.head.Load()
	if h == q.tailSnap { // looks empty; refresh the producer index
		q.tailSnap = q.tail.Load()
		if h == q.tailSnap {
			return false
		}
	}
	*v = q.buf[h&q.mask]
	var zero T
	q.buf[h&q.mask] = zero // release references for the garbage collector
	q.head.Store(h + 1)
	return true
}

// PopN removes up to len(dst) elements in FIFO order into dst and returns
// how many it moved (0 when the queue is empty). The whole batch costs at
// most one acquire refresh of the producer index and exactly one release
// store of the head. Like Pop it must be called by at most one goroutine
// at a time (the consumer).
func (q *SPSC[T]) PopN(dst []T) int {
	h := q.head.Load()
	avail := q.tailSnap - h
	if avail < uint64(len(dst)) { // refresh the producer index once
		q.tailSnap = q.tail.Load()
		avail = q.tailSnap - h
	}
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	// The n slots starting at h wrap at most once; copy out (and zero for
	// the garbage collector) in two segments.
	capacity := q.mask + 1
	start := h & q.mask
	first := capacity - start
	if first > n {
		first = n
	}
	copy(dst[:first], q.buf[start:start+first])
	clear(q.buf[start : start+first])
	copy(dst[first:n], q.buf[:n-first])
	clear(q.buf[:n-first])
	q.head.Store(h + n)
	return int(n)
}
