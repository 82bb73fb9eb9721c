// The sharded free list in the DES: a policy-level model of the native
// scheduler's per-thread shards with work stealing and a global spill
// list (internal/sched). The DES version trades the
// lock-free machinery for exact sequential structures so the *policy*
// can be checked at controlled core counts: work conservation — no
// hint is ever stranded or duplicated, across elastic shrink and regrow
// included.
package des

import "fmt"

// popFreeSharded is a scheduler thread's sharded hint lookup: own shard
// (cache-warm, LIFO), steal from every other shard in thread-ID order
// (the shard's cold end), and finally the global spill list. Every
// shard is always reachable by every thread, so parking a thread can
// never strand a hint — the invariant CheckHintConservation verifies.
func (s *Sim) popFreeSharded(t *thread) (int, bool) {
	if sh := s.shards[t.id]; len(sh) > 0 {
		p := sh[len(sh)-1]
		s.shards[t.id] = sh[:len(sh)-1]
		s.onList[p] = false
		return p, true
	}
	for v, sh := range s.shards {
		if v != t.id && len(sh) > 0 {
			p := sh[0]
			s.shards[v] = sh[1:]
			s.onList[p] = false
			return p, true
		}
	}
	if len(s.freeList) > 0 {
		p := s.freeList[0]
		s.freeList = s.freeList[1:]
		s.onList[p] = false
		return p, true
	}
	return 0, false
}

// CheckHintConservation verifies the free-structure invariant at the
// current instant: every port marked on-list appears on exactly one of
// the global list or a shard, and no off-list port appears anywhere.
// Tests call it after suspending threads to prove no hint was stranded
// or duplicated.
func (s *Sim) CheckHintConservation() error {
	count := make([]int, len(s.onList))
	for _, p := range s.freeList {
		count[p]++
	}
	for _, sh := range s.shards {
		for _, p := range sh {
			count[p]++
		}
	}
	for p, n := range count {
		want := 0
		if s.onList[p] {
			want = 1
		}
		if n != want {
			return fmt.Errorf("des: port %d appears %d times across the free structures, want %d", p, n, want)
		}
	}
	return nil
}
