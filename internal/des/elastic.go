package des

import (
	"container/heap"

	"streams/internal/elastic"
)

// Elastic support: the DES can suspend and resume scheduler threads at
// period boundaries, so the real elasticity controller
// (internal/elastic) can drive a simulated PE — Figure 11 on the
// event-level simulator instead of the analytic model.

// runUntil advances the event clock to the given simulated time.
func (s *Sim) runUntil(until float64) {
	for len(s.events) > 0 && s.events[0].at <= until {
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		s.step(e.tid)
	}
	if s.now < until {
		s.now = until
	}
}

// setLevel suspends scheduler threads above level and resumes those
// below it. Suspended threads park at their next find-work step, exactly
// like the native scheduler's threads park between drains.
func (s *Sim) setLevel(level int) {
	if s.suspended == nil {
		s.suspended = make([]bool, s.cfg.Threads)
		s.parked = make([]bool, s.cfg.Threads)
	}
	for tid := 0; tid < s.cfg.Threads; tid++ {
		want := tid >= level
		if want == s.suspended[tid] {
			continue
		}
		s.suspended[tid] = want
		if !want && s.parked[tid] {
			s.parked[tid] = false
			s.schedule(tid, 0)
		}
	}
}

// ElasticPoint is one adaptation period of an elastic DES run.
type ElasticPoint struct {
	// Second is simulated seconds into the run.
	Second float64
	// Throughput is tuples executed across all operators per second
	// during the period.
	Throughput float64
	// Threads is the level chosen for the next period.
	Threads int
}

// RunElastic drives the elasticity controller against this simulation:
// every periodNs of simulated time it measures PE-wide throughput,
// updates the controller, and applies the new level. cfg.Threads is the
// maximum level. Call instead of Run.
func (s *Sim) RunElastic(periodNs float64, periods int) ([]ElasticPoint, error) {
	ctl, err := elastic.New(elastic.Config{MaxLevel: s.cfg.Threads})
	if err != nil {
		return nil, err
	}
	for tid := range s.threads {
		s.schedule(tid, 0)
	}
	level := ctl.Level()
	s.setLevel(level)
	var trace []ElasticPoint
	lastExecuted := uint64(0)
	for p := 1; p <= periods; p++ {
		until := float64(p) * periodNs
		s.runUntil(until)
		delta := s.res.Executed - lastExecuted
		lastExecuted = s.res.Executed
		thput := float64(delta) / (periodNs / 1e9)
		level = ctl.Update(thput)
		s.setLevel(level)
		trace = append(trace, ElasticPoint{Second: until / 1e9, Throughput: thput, Threads: level})
	}
	return trace, nil
}
