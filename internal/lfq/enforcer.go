package lfq

import "sync/atomic"

// Enforcer wraps an operator input port's single-producer/single-consumer
// queue with the two flags that enforce when it is safe to produce into
// or consume from it — the SPSCEnforcer structure from the paper's
// Figure 3.
//
// The consumer lock guarantees that only one thread executes an operator
// input port at a time, which is how the scheduler preserves tuple order:
// upstream threads enqueue tuples in submission order, and a single
// consumer pops them in that order. The producer lock exists only so the
// underlying queue can remain single-producer; multiple upstream threads
// may attempt to push concurrently (fan-in, or different threads
// executing the same upstream operator over time).
//
// Both locks are try-locks. Following the paper's design, a thread that
// fails to acquire one never blocks on it — it abandons the operation and
// does something else.
type Enforcer[T any] struct {
	queue      *SPSC[T]
	prodLocked atomic.Bool
	_          cacheLinePad
	consLocked atomic.Bool
	_          cacheLinePad
}

// NewEnforcer returns an Enforcer around a fresh SPSC queue of the given
// capacity (a power of two), whose ring is allocated at its first push.
func NewEnforcer[T any](capacity int) *Enforcer[T] {
	return &Enforcer[T]{queue: NewSPSC[T](capacity)}
}

// Queue exposes the underlying ring buffer. Callers must hold the
// corresponding lock: ProdTryLock before Queue().Push, ConsTryLock before
// Queue().Pop.
func (e *Enforcer[T]) Queue() *SPSC[T] { return e.queue }

// ProdTryLock attempts to acquire exclusive produce access.
func (e *Enforcer[T]) ProdTryLock() bool {
	return e.prodLocked.CompareAndSwap(false, true)
}

// ProdUnlock releases produce access.
func (e *Enforcer[T]) ProdUnlock() { e.prodLocked.Store(false) }

// ConsTryLock attempts to acquire exclusive consume access.
func (e *Enforcer[T]) ConsTryLock() bool {
	return e.consLocked.CompareAndSwap(false, true)
}

// ConsUnlock releases consume access.
func (e *Enforcer[T]) ConsUnlock() { e.consLocked.Store(false) }

// Push attempts to enqueue v, acquiring and releasing the producer lock
// around the queue push (the paper's SPSCEnforcer::push). It returns
// false if the producer lock was contended or the queue was full; the
// caller cannot distinguish the two and, per the paper, should not try —
// reSchedule handles both.
func (e *Enforcer[T]) Push(v T) bool {
	if e.ProdTryLock() {
		ok := e.queue.Push(v)
		e.ProdUnlock()
		return ok
	}
	return false
}

// PushN attempts to enqueue up to len(src) tuples in order under a single
// producer try-lock acquisition, returning how many were accepted. A
// return of 0 means the lock was contended or the queue was full; as with
// Push the caller cannot distinguish the two and should fall back to the
// scheduler's reSchedule path for the remainder. A partial count means
// the queue filled: the accepted prefix is enqueued in order, so FIFO
// order per producer is preserved when the caller retries the suffix.
func (e *Enforcer[T]) PushN(src []T) int {
	if len(src) == 0 || !e.ProdTryLock() {
		return 0
	}
	n := e.queue.PushN(src)
	e.ProdUnlock()
	return n
}

// ConsumeN attempts to dequeue up to len(dst) tuples under a single
// consumer try-lock acquisition. It returns how many tuples were moved
// and whether the lock was acquired at all (n == 0 with ok == true means
// the queue was empty). Callers that drain repeatedly (the scheduler's
// main loop) should instead hold ConsTryLock across several Queue().PopN
// calls; ConsumeN is the one-shot helper for callers that would otherwise
// pair the locks around a single Pop.
func (e *Enforcer[T]) ConsumeN(dst []T) (n int, ok bool) {
	if !e.ConsTryLock() {
		return 0, false
	}
	n = e.queue.PopN(dst)
	e.ConsUnlock()
	return n, true
}
