package sim

import (
	"math/rand"

	"streams/internal/elastic"
)

// TracePoint is one adaptation period of a simulated elastic run — one
// point of a Fig. 11 series.
type TracePoint struct {
	// Second is simulated seconds into the run.
	Second float64
	// Throughput is the measured PE-wide tuples/s for the period.
	Throughput float64
	// Threads is the thread level chosen for the next period.
	Threads int
}

// ElasticConfig parametrizes a simulated elastic run.
type ElasticConfig struct {
	// PeriodSec is the adaptation period (the product uses 10 s).
	PeriodSec float64
	// DurationSec is the run length (the paper's traces run 1400 s).
	DurationSec float64
	// Seed drives the measurement-noise generator; runs are fully
	// deterministic given a seed.
	Seed int64
	// MinLevel is the deadlock-avoidance floor (1 + max input ports).
	MinLevel int
	// SwitchAtSec, when positive, switches the workload to SwitchTo at
	// that simulated time — the §4.2.3 scenario where untrusting data
	// after a load change "will cause us to find new settling points".
	SwitchAtSec float64
	// SwitchTo is the post-change workload.
	SwitchTo Workload
}

// RunElastic drives the real elasticity controller (internal/elastic)
// against the machine model, reproducing the paper's Figure 11 traces:
// throughput and active threads over time for one run.
func RunElastic(mo Model, cfg ElasticConfig) []TracePoint {
	if cfg.PeriodSec <= 0 {
		cfg.PeriodSec = 10
	}
	if cfg.DurationSec <= 0 {
		cfg.DurationSec = 1400
	}
	if cfg.MinLevel < 1 {
		cfg.MinLevel = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctl, err := elastic.New(elastic.Config{MinLevel: cfg.MinLevel, MaxLevel: mo.M.LogicalCores()})
	if err != nil {
		panic(err) // unreachable: inputs are validated above
	}
	var trace []TracePoint
	level := ctl.Level()
	cur := mo
	for sec := cfg.PeriodSec; sec <= cfg.DurationSec; sec += cfg.PeriodSec {
		if cfg.SwitchAtSec > 0 && sec > cfg.SwitchAtSec {
			cur = Model{M: mo.M, W: cfg.SwitchTo}
		}
		// The product measures over a full period after applying the new
		// level, so each sample reflects the level's steady state plus
		// measurement noise.
		base := cur.PEThroughput(Dynamic, level)
		measured := base * (1 + cur.NoiseSD(level)*rng.NormFloat64())
		if measured < 0 {
			measured = 0
		}
		level = ctl.Update(measured)
		trace = append(trace, TracePoint{Second: sec, Throughput: measured, Threads: level})
	}
	return trace
}

// SettledLevels returns the thread levels visited in the final fraction
// of a trace (the paper reports the level the algorithm "settled on"
// from the last samples).
func SettledLevels(trace []TracePoint, fraction float64) (lo, hi int) {
	if len(trace) == 0 {
		return 0, 0
	}
	start := int(float64(len(trace)) * (1 - fraction))
	if start < 0 {
		start = 0
	}
	lo, hi = trace[start].Threads, trace[start].Threads
	for _, p := range trace[start:] {
		lo, hi = min(lo, p.Threads), max(hi, p.Threads)
	}
	return lo, hi
}

// SettledThroughput averages measured throughput over the final fraction
// of a trace — the paper's "final 5 samples" convention (§5).
func SettledThroughput(trace []TracePoint, fraction float64) float64 {
	if len(trace) == 0 {
		return 0
	}
	start := int(float64(len(trace)) * (1 - fraction))
	sum := 0.0
	for _, p := range trace[start:] {
		sum += p.Throughput
	}
	return sum / float64(len(trace)-start)
}
