package des

import "testing"

// runSim is like run but keeps the Sim for post-run invariant checks.
func runSim(t *testing.T, width, depth, cost int, cfg Config) (*Sim, Result) {
	t.Helper()
	g, costOf := buildTopo(t, width, depth, cost)
	cfg.CostOf = costOf
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Run()
}

// TestShardedWorkConservation: the sharded free-list model must deliver
// the same correctness guarantees as the global list — no ordering
// violations, no starved ports — and every on-list hint must sit on
// exactly one structure when the run ends.
func TestShardedWorkConservation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"tight", Config{Cores: 8, Threads: 4, Duration: 5e7, Sharded: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, r := runSim(t, 8, 3, 50, tc.cfg)
			if r.SinkTuples == 0 {
				t.Fatal("sharded run delivered nothing")
			}
			if r.OrderViolations != 0 {
				t.Fatalf("%d order violations", r.OrderViolations)
			}
			if r.PortStarved != 0 {
				t.Fatalf("%d ports starved", r.PortStarved)
			}
			if err := s.CheckHintConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedShrinkConservation parks threads mid-run (the elastic
// shrink), then resumes: hints parked threads were holding in their
// shards must stay reachable (the steal path covers parked victims),
// progress must continue, and conservation must hold at the end.
func TestShardedShrinkConservation(t *testing.T) {
	g, costOf := buildTopo(t, 8, 3, 50)
	s, err := New(g, Config{Cores: 8, Threads: 6, Duration: 2e8, Sharded: true, CostOf: costOf})
	if err != nil {
		t.Fatal(err)
	}
	for tid := range s.threads {
		s.schedule(tid, 0)
	}
	s.runUntil(4e7)
	s.setLevel(2)
	s.runUntil(8e7)
	mid := s.res.SinkTuples
	if mid == 0 {
		t.Fatal("no tuples delivered at the shrunken level")
	}
	s.setLevel(6)
	s.runUntil(1.6e8)
	if s.res.SinkTuples <= mid {
		t.Fatal("no progress after regrow")
	}
	if s.res.OrderViolations != 0 {
		t.Fatalf("%d order violations across shrink/regrow", s.res.OrderViolations)
	}
	if err := s.CheckHintConservation(); err != nil {
		t.Fatal(err)
	}
}
