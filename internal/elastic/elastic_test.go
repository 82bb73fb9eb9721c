package elastic

import (
	"math"
	"testing"
)

// curve returns a synthetic throughput-vs-level performance curve with
// the three phases the algorithm assumes (§4.2.2): improvement up to
// peak, then degradation at slope down per level.
func curve(peak int, down float64) func(level int) float64 {
	return func(level int) float64 {
		if level <= peak {
			return 100 * float64(level)
		}
		return 100*float64(peak) - down*float64(level-peak)
	}
}

// settle runs the controller against a static curve for the given number
// of periods and returns the visited levels.
func settle(t *testing.T, c *Controller, f func(int) float64, periods int) []int {
	t.Helper()
	levels := make([]int, 0, periods)
	for i := 0; i < periods; i++ {
		l := c.Update(f(c.Level()))
		levels = append(levels, l)
	}
	return levels
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{MaxLevel: 0}); err == nil {
		t.Error("MaxLevel 0 accepted")
	}
	if _, err := New(Config{MinLevel: 5, MaxLevel: 3}); err == nil {
		t.Error("MinLevel > MaxLevel accepted")
	}
	c, err := New(Config{MaxLevel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Level() != 1 {
		t.Fatalf("initial level = %d, want 1", c.Level())
	}
}

func TestKickOffFromLevelOne(t *testing.T) {
	c, _ := New(Config{MaxLevel: 8})
	// Rule 3: level 1 with nothing trusted above must increase, to the
	// first geometric bracket: 1 + 2×1.
	if got := c.Update(100); got != 3 || c.LastRule() != RuleKickoff {
		t.Fatalf("first Update moved to %d by %v, want 3 by kickoff", got, c.LastRule())
	}
}

// TestConvergesToPeakLinear: on the piecewise-linear curve the bracket
// doubles past each small peak and bisects back onto it, then holds.
func TestConvergesToPeakLinear(t *testing.T) {
	for _, peak := range []int{1, 3, 7, 12} {
		c, _ := New(Config{MaxLevel: 16})
		f := curve(peak, 30)
		levels := settle(t, c, f, 120)
		// Examine the final quarter: every visited level should be within
		// one step of the peak (the algorithm keeps testing neighbors).
		for _, l := range levels[90:] {
			if l < peak-1 || l > peak+1 {
				t.Fatalf("peak %d: settled window contains level %d (trace tail %v)", peak, l, levels[100:])
			}
		}
	}
}

func TestConvergesToPeakGeometric(t *testing.T) {
	c, _ := New(Config{MaxLevel: 176})
	f := curve(80, 20)
	levels := settle(t, c, f, 200)
	tail := levels[150:]
	for _, l := range tail {
		if l < 40 || l > 130 {
			t.Fatalf("geometric settling wandered to %d (tail %v)", l, tail[:10])
		}
	}
}

func TestGeometricRampIsFast(t *testing.T) {
	c, _ := New(Config{MaxLevel: 176})
	// Monotone improvement all the way: should reach max in O(log n)
	// periods, matching the product's quick ramp in Fig. 11.
	f := curve(176, 0)
	levels := settle(t, c, f, 20)
	reached := 0
	for i, l := range levels {
		if l == 176 {
			reached = i + 1
			break
		}
	}
	if reached == 0 || reached > 12 {
		t.Fatalf("geometric ramp took %d periods to reach 176 (0 = never): %v", reached, levels)
	}
}

func TestLinearPlateauStops(t *testing.T) {
	// Flat curve: no trend between levels, so after exploring 1→3 the
	// controller falls back to 1 and stays there.
	c, _ := New(Config{MaxLevel: 8})
	f := func(int) float64 { return 500 }
	levels := settle(t, c, f, 50)
	for i, l := range levels[1:] {
		if l != 1 {
			t.Fatalf("period %d: flat curve held level %d, want 1 (trace %v)", i+1, l, levels[:10])
		}
	}
}

func TestCPUGateBlocksGrowth(t *testing.T) {
	gate := true
	c, _ := New(Config{MaxLevel: 8, CPUAcceptable: func() bool { return gate }})
	f := curve(8, 0)
	settle(t, c, f, 10)
	if c.Level() < 4 {
		t.Fatalf("level %d did not grow with gate open", c.Level())
	}
	gate = false
	before := c.Level()
	for i := 0; i < 10; i++ {
		c.Update(f(c.Level()))
		if c.Level() > before {
			t.Fatalf("level grew from %d to %d with gate closed", before, c.Level())
		}
		// Decreases remain allowed; track the moving ceiling.
		before = max(before, c.Level())
	}
}

func TestMinLevelFloor(t *testing.T) {
	c, _ := New(Config{MinLevel: 3, MaxLevel: 8})
	if c.Level() != 3 {
		t.Fatalf("initial level = %d, want MinLevel 3", c.Level())
	}
	// Degrading curve: controller must never go below MinLevel.
	f := func(l int) float64 { return 1000 - 50*float64(l) }
	levels := settle(t, c, f, 50)
	for _, l := range levels {
		if l < 3 {
			t.Fatalf("level %d below MinLevel", l)
		}
	}
}

func TestMaxLevelCeiling(t *testing.T) {
	c, _ := New(Config{MaxLevel: 4})
	f := curve(100, 0) // always improving
	levels := settle(t, c, f, 30)
	for _, l := range levels {
		if l > 4 {
			t.Fatalf("level %d above MaxLevel", l)
		}
	}
	if c.Level() != 4 {
		t.Fatalf("did not reach MaxLevel, at %d", c.Level())
	}
}

func TestWorkloadChangeWipesTrust(t *testing.T) {
	c, _ := New(Config{MaxLevel: 16})
	f := curve(4, 50)
	settle(t, c, f, 60)
	// The brackets 1, 3, 7 straddle peak 4; 7 is worse than 3, so the
	// controller settles on 3.
	if c.Level() != 3 || !c.Trusted(3) {
		t.Fatalf("settled at %d (trusted %v), want trusted level 3", c.Level(), c.Trusted(c.Level()))
	}
	// Workload shift: the peak moves to 10 and the scale changes by far
	// more than Sens. The next Update at the settled level must detect
	// the change and wipe trust.
	g := func(l int) float64 { return 3 * curve(10, 50)(l) }
	c.Update(g(c.Level()))
	trusted := 0
	for l := 1; l <= 16; l++ {
		if c.Trusted(l) {
			trusted++
		}
	}
	if trusted != 1 { // only the just-observed level
		t.Fatalf("%d levels trusted right after workload change, want 1", trusted)
	}
	// And it must re-converge to the new peak.
	levels := settle(t, c, g, 150)
	for _, l := range levels[120:] {
		if l < 9 || l > 11 {
			t.Fatalf("did not re-converge to new peak 10: level %d (tail %v)", l, levels[140:])
		}
	}
}

func TestStableLoadDoesNotWipe(t *testing.T) {
	c, _ := New(Config{MaxLevel: 8})
	f := curve(4, 50)
	settle(t, c, f, 40)
	// 2% jitter stays under the 5% sensitivity: no workload change.
	c.Update(f(c.Level()) * 1.02)
	trusted := 0
	for l := 1; l <= 8; l++ {
		if c.Trusted(l) {
			trusted++
		}
	}
	if trusted < 3 {
		t.Fatalf("jitter below Sens wiped trust (%d trusted)", trusted)
	}
}

func TestActionsDidNotStickHoldsLevel(t *testing.T) {
	c, _ := New(Config{MaxLevel: 8})
	f := curve(8, 0)
	settle(t, c, f, 2) // 1 → 3 → 7: still climbing
	level := c.Level()
	c.ActionsDidNotStick()
	if got := c.Update(f(level)); got != level {
		t.Fatalf("deferred Update changed level %d → %d", level, got)
	}
	// Next period proceeds normally.
	if got := c.Update(f(level)); got == level {
		t.Fatalf("Update after deferral did not resume adaptation (stuck at %d)", got)
	}
}

func TestOscillationUnderNoise(t *testing.T) {
	// The §5.4 pathology: measurement noise above Sens causes repeated
	// trust wipes and level oscillation. Verify the mechanism: with ±10%
	// deterministic alternating noise, the controller keeps moving.
	c, _ := New(Config{MaxLevel: 32})
	f := curve(16, 10)
	changes := 0
	prev := c.Level()
	sign := 1.0
	for i := 0; i < 200; i++ {
		noise := 1 + 0.10*sign
		sign = -sign
		l := c.Update(f(c.Level()) * noise)
		if l != prev {
			changes++
		}
		prev = l
	}
	if changes < 20 {
		t.Fatalf("expected sustained oscillation under super-Sens noise, saw %d changes", changes)
	}
}

func TestConvergenceIsStable(t *testing.T) {
	// Once settled on a noise-free curve, the stable condition (trend
	// below, trusted above, no trend above) should hold most of the time:
	// the level must not drift far over a long horizon.
	c, _ := New(Config{MaxLevel: 16})
	f := curve(6, 40)
	settle(t, c, f, 60)
	var minL, maxL = math.MaxInt, 0
	for i := 0; i < 100; i++ {
		l := c.Update(f(c.Level()))
		minL, maxL = min(minL, l), max(maxL, l)
	}
	if minL < 5 || maxL > 7 {
		t.Fatalf("settled band [%d, %d] too wide around peak 6", minL, maxL)
	}
}

// TestEveryRuleReachable drives the controller into every level-change
// rule, so each Rule value the decision log can print is one the
// controller actually produces.
func TestEveryRuleReachable(t *testing.T) {
	seen := map[Rule]bool{}
	update := func(c *Controller, thput float64) int {
		l := c.Update(thput)
		seen[c.LastRule()] = true
		return l
	}

	// Monotone curve to a low ceiling: kickoff 1 → 3, trend-up 3 → 4,
	// then the ceiling holds the climb; a deferred period; finally a
	// tenfold load change at level 4 wipes trust, so nothing below is
	// trusted and the controller probes down.
	c, _ := New(Config{MaxLevel: 4})
	seen[c.LastRule()] = true // none, before any Update
	for i := 0; i < 4; i++ {
		update(c, 100*float64(c.Level()))
	}
	c.ActionsDidNotStick()
	update(c, 100*float64(c.Level()))
	if l := update(c, 4000); l >= 4 {
		t.Fatalf("load change at the ceiling left level %d", l)
	}

	// Peaked curve: overshooting the peak backs off (no trend below), and
	// the settled level stays.
	c, _ = New(Config{MaxLevel: 16})
	f := curve(6, 40)
	for i := 0; i < 20; i++ {
		update(c, f(c.Level()))
	}

	// Level 3 is no better than level 1, so the controller backs off to
	// 1; there a reading under Sens below its record (no load change)
	// is more than Sens below level 3's record, which wins it back.
	c, _ = New(Config{MaxLevel: 8})
	for _, thput := range []float64{100, 104, 98} {
		update(c, thput)
	}
	if c.Level() != 3 || c.LastRule() != RuleBetterAbove {
		t.Fatalf("at level %d by %v, want 3 by better-above", c.Level(), c.LastRule())
	}

	for r := RuleNone; r <= RuleStay; r++ {
		if !seen[r] {
			t.Errorf("rule %v never reached", r)
		}
	}
}
