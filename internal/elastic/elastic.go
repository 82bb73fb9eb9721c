// Package elastic implements the paper's elasticity algorithm (§4.2):
// periodically observe PE-wide throughput, maintain a trusted performance
// record per thread level, and move the thread level toward the point
// that maximizes throughput.
//
// The central idea is trust. A ThreadRecord is trusted once we have
// observed throughput at its level since the last workload change;
// detecting a workload change (changeInLoad) wipes all trust, restarting
// exploration. The level-change rules combine trends against the levels
// bracketing the current one:
//
//  1. upward trend from below and nothing trusted above → increase
//  2. the level above was observed to be better → increase
//  3. at level 1 with nothing trusted above → increase (kick-off)
//  4. nothing trusted below → decrease
//  5. no upward trend from below to here → decrease
//  6. otherwise → stay
//
// Increases additionally require the CPU-usage gate to pass and the level
// to remain within [MinLevel, MaxLevel].
//
// The controller runs the product's policy and nothing else: geometric
// brackets (while exploring upward the step above the current level
// doubles, so it ramps to high levels in O(log n) periods — Fig. 11's
// quick ramp-up — and bisects back down when it overshoots), the 5%
// sensitivity Sens, and a trust wipe on every workload change.
package elastic

import "fmt"

// Sens is the sensitivity threshold: trends and workload changes react
// to relative differences of more than 5%, the product's setting.
const Sens = 0.05

// Rule identifies which of the level-change rules decided the last
// Update — the controller's explanation of itself, surfaced in the
// elasticity decision log and the adaptation trace.
type Rule uint8

const (
	// RuleNone: no Update has run yet.
	RuleNone Rule = iota
	// RuleDeferred: a prior action had not taken effect, so the level
	// held while the runtime caught up (§4.2.3).
	RuleDeferred
	// RuleTrendUp: throughput trended up from the level below and
	// nothing above is trusted — explore upward (rule 1).
	RuleTrendUp
	// RuleBetterAbove: the level above holds a trusted, better record —
	// return to it (rule 2).
	RuleBetterAbove
	// RuleKickoff: at the minimum level with nothing trusted above —
	// initial exploration (rule 3).
	RuleKickoff
	// RuleGateHeld: a rule wanted to increase but the CPU gate or the
	// level ceiling refused.
	RuleGateHeld
	// RuleNoTrustBelow: nothing trusted below — probe downward (rule 4).
	RuleNoTrustBelow
	// RuleNoTrendBelow: no upward trend from the level below to here, so
	// the extra threads are not paying — back off (rule 5).
	RuleNoTrendBelow
	// RuleStay: the current level is the best known point (rule 6).
	RuleStay
)

// String implements fmt.Stringer; the names appear in decision logs.
func (r Rule) String() string {
	switch r {
	case RuleNone:
		return "none"
	case RuleDeferred:
		return "deferred"
	case RuleTrendUp:
		return "trend-up"
	case RuleBetterAbove:
		return "better-above"
	case RuleKickoff:
		return "kickoff"
	case RuleGateHeld:
		return "gate-held"
	case RuleNoTrustBelow:
		return "no-trust-below"
	case RuleNoTrendBelow:
		return "no-trend-below"
	case RuleStay:
		return "stay"
	default:
		return fmt.Sprintf("Rule(%d)", uint8(r))
	}
}

// record is the paper's ThreadRecord, reduced to the fields the rules
// read: the latest throughput observed at the level, and whether it is
// trusted (observed since the last workload change).
type record struct {
	lastThput float64
	trusted   bool
}

// Config parametrizes a Controller.
type Config struct {
	// MinLevel is the smallest level the controller will select; the PE
	// passes 1 + max input ports per operator (deadlock avoidance,
	// §4.2.3). Values below 1 become 1.
	MinLevel int
	// MaxLevel is the largest level; the PE passes the number of logical
	// processors available to it (§4.2.3). Required.
	MaxLevel int
	// CPUAcceptable gates increases on total system usage; nil means
	// always acceptable.
	CPUAcceptable func() bool
}

// Controller runs the elasticity algorithm. It is not safe for
// concurrent use; the PE calls Update from a single adaptation loop.
type Controller struct {
	cfg  Config
	recs []record

	level      int
	levelBelow int
	levelAbove int

	// deferred is set when an intended suspension did not take effect
	// during the last period; the controller holds the level until
	// actions stick (§4.2.3).
	deferred bool
	// lastRule records which rule decided the most recent Update.
	lastRule Rule
}

// New returns a controller starting at the minimum level.
func New(cfg Config) (*Controller, error) {
	if cfg.MaxLevel < 1 {
		return nil, fmt.Errorf("elastic: MaxLevel %d must be at least 1", cfg.MaxLevel)
	}
	if cfg.MinLevel < 1 {
		cfg.MinLevel = 1
	}
	if cfg.MinLevel > cfg.MaxLevel {
		return nil, fmt.Errorf("elastic: MinLevel %d exceeds MaxLevel %d", cfg.MinLevel, cfg.MaxLevel)
	}
	c := &Controller{
		cfg:        cfg,
		recs:       make([]record, cfg.MaxLevel+1), // recs[0] unused
		level:      cfg.MinLevel,
		levelBelow: cfg.MinLevel - 1,
	}
	c.levelAbove = c.bracketAbove(cfg.MinLevel, 1)
	return c, nil
}

// Level returns the current thread level.
func (c *Controller) Level() int { return c.level }

// Trusted reports whether the record for level l is currently trusted
// (diagnostics and tests).
func (c *Controller) Trusted(l int) bool {
	return l >= 1 && l < len(c.recs) && c.recs[l].trusted
}

// LastRule identifies which level-change rule decided the most recent
// Update (RuleNone before the first).
func (c *Controller) LastRule() Rule { return c.lastRule }

// ActionsDidNotStick tells the controller that a thread-level action from
// the previous period did not take effect (for example, a thread marked
// for suspension was stuck in operator code). The controller makes no
// level change on the next Update.
func (c *Controller) ActionsDidNotStick() { c.deferred = true }

// bracketAbove computes the next level above l given the previous gap:
// twice the gap, clamped to MaxLevel (l itself when already there).
func (c *Controller) bracketAbove(l, gap int) int {
	return max(min(l+2*max(gap, 1), c.cfg.MaxLevel), l)
}

// Update is the paper's updateThreadLevel (Figure 8): record the latest
// PE-wide throughput observation and return the thread level to use for
// the next period.
func (c *Controller) Update(thput float64) int {
	if c.deferred {
		// Hold everything until the runtime confirms prior actions
		// happened; still refresh the current level's record.
		c.deferred = false
		c.lastRule = RuleDeferred
		c.observe(thput)
		return c.level
	}
	if c.changeInLoad(thput) {
		clear(c.recs)
	}
	c.observe(thput)

	var why Rule
	switch {
	case c.trendBelow(thput) && !c.trustAbove():
		why = RuleTrendUp
	case c.trendAbove(thput):
		why = RuleBetterAbove
	case c.level == c.cfg.MinLevel && !c.trustAbove():
		why = RuleKickoff
	}
	increase := why != RuleNone
	switch {
	case increase && c.cpuOK() && c.level < c.cfg.MaxLevel:
		c.lastRule = why
		c.increaseLevel()
	case increase:
		// Wanted to grow but the gate or the ceiling stops us: hold.
		c.lastRule = RuleGateHeld
	case c.level > c.cfg.MinLevel && !c.trustBelow():
		c.lastRule = RuleNoTrustBelow
		c.decreaseLevel()
	case c.level > c.cfg.MinLevel && !c.trendBelow(thput):
		c.lastRule = RuleNoTrendBelow
		c.decreaseLevel()
	default:
		// At the floor the decrease rules degenerate into holding
		// position (decreaseLevel would refuse anyway): stay.
		c.lastRule = RuleStay
	}
	return c.level
}

// observe records thput for the current level.
func (c *Controller) observe(thput float64) {
	c.recs[c.level] = record{lastThput: thput, trusted: true}
}

// changeInLoad decides whether the newest observation at the current
// level differs enough from the last trusted one to mean the workload
// changed (the paper cites Gedik et al.'s Algorithm 3). A difference of
// more than Sens relative to the recorded throughput counts as a change.
func (c *Controller) changeInLoad(thput float64) bool {
	r := c.recs[c.level]
	if !r.trusted {
		return false
	}
	diff := thput - r.lastThput
	if diff < 0 {
		diff = -diff
	}
	return diff > Sens*r.lastThput
}

// trendBelow reports whether moving from the level below to the current
// level improved throughput by more than Sens.
func (c *Controller) trendBelow(thput float64) bool {
	if c.level == c.cfg.MinLevel {
		return false
	}
	r := c.recs[c.levelBelow]
	if !r.trusted {
		return false
	}
	return thput > r.lastThput && thput-r.lastThput > Sens*r.lastThput
}

// trendAbove reports whether the recorded throughput at the level above
// beats the current observation by more than Sens.
func (c *Controller) trendAbove(thput float64) bool {
	if c.levelAbove <= c.level || c.levelAbove >= len(c.recs) {
		return false
	}
	r := c.recs[c.levelAbove]
	if !r.trusted {
		return false
	}
	return r.lastThput > thput && r.lastThput-thput > Sens*thput
}

// trustBelow reports whether the level below has a trusted record.
func (c *Controller) trustBelow() bool {
	if c.level == c.cfg.MinLevel {
		return false
	}
	return c.recs[c.levelBelow].trusted
}

// trustAbove reports whether the level above has a trusted record.
func (c *Controller) trustAbove() bool {
	if c.level >= c.cfg.MaxLevel || c.levelAbove <= c.level {
		return false
	}
	return c.recs[c.levelAbove].trusted
}

// cpuOK consults the CPU-usage gate.
func (c *Controller) cpuOK() bool {
	return c.cfg.CPUAcceptable == nil || c.cfg.CPUAcceptable()
}

// increaseLevel moves the bracket up: the current level becomes the level
// below, the level above becomes current, and a new level above is chosen
// by doubling the gap. The bracket invariant levelBelow < level (and
// levelAbove > level except at MaxLevel) is restored if prior clamping
// degenerated it.
func (c *Controller) increaseLevel() {
	if c.levelAbove <= c.level {
		c.levelAbove = c.level + 1
		if c.levelAbove > c.cfg.MaxLevel {
			return // already at the ceiling
		}
	}
	gap := c.levelAbove - c.level
	c.levelBelow = c.level
	c.level = c.levelAbove
	c.levelAbove = c.bracketAbove(c.level, gap)
}

// decreaseLevel moves the bracket down: the current level becomes the
// level above and the level below becomes current. The gap below
// shrinks by half (never below one), bisecting toward fine-grained
// settling.
func (c *Controller) decreaseLevel() {
	if c.level <= c.cfg.MinLevel {
		return
	}
	gap := c.level - c.levelBelow
	c.levelAbove = c.level
	if c.levelBelow >= c.level { // degenerate bracket; step down by one
		c.levelBelow = c.level - 1
	}
	c.level = c.levelBelow
	c.levelBelow = c.level - max(gap/2, 1)
	if c.level == c.cfg.MinLevel {
		c.levelBelow = c.cfg.MinLevel - 1 // sentinel: nothing below
	} else if c.levelBelow < c.cfg.MinLevel {
		c.levelBelow = c.cfg.MinLevel
	}
}
