package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"streams/internal/metrics"
)

// ContentType is the OpenMetrics text exposition media type /metricz
// responds with.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// mw accumulates exposition lines, capturing the first write error so
// the emit helpers stay unconditional.
type mw struct {
	w   io.Writer
	err error
}

func (m *mw) line(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

func (m *mw) family(name, typ, help string) {
	m.line("# TYPE %s %s\n", name, typ)
	if help != "" {
		m.line("# HELP %s %s\n", name, help)
	}
}

// meters renders one counter family from the meters of a bundle
// snapshot in the given group, one sample per meter, labelled with its
// kind.
func (m *mw) meters(name, help, label string, snap any, group string) {
	m.family(name, "counter", help)
	metrics.Each(snap, func(kind, g string, v uint64) {
		if g == group {
			m.line("%s_total{%s=\"%s\"} %d\n", name, label, kind, v)
		}
	})
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// WriteMetrics renders the newest sample as an OpenMetrics text
// exposition — every scheduler counter, the elastic level gauge, the
// per-edge flow series, latency quantiles, and the ingest meters and
// per-tenant dispositions — terminated by the mandatory # EOF. If no
// sample has been taken yet it takes one, so a fresh /metricz scrape
// works.
func (c *Collector) WriteMetrics(w io.Writer) error {
	c.mu.Lock()
	var s Sample
	if c.count > 0 {
		s = c.ring[(c.next-1+len(c.ring))%len(c.ring)]
		c.mu.Unlock()
	} else {
		c.mu.Unlock()
		s = c.SampleNow()
	}

	m := &mw{w: w}
	m.family("streams_executed", "counter", "Tuples processed across all operators.")
	m.line("streams_executed_total %d\n", s.Executed)
	m.family("streams_sink_delivered", "counter", "Tuples delivered to sink operators.")
	m.line("streams_sink_delivered_total %d\n", s.SinkDelivered)
	m.family("streams_reschedules", "counter", "Full-queue pushes that fell into reSchedule self-help.")
	m.line("streams_reschedules_total %d\n", s.Sched.Reschedules)
	m.family("streams_find_failures", "counter", "Work searches that came up empty.")
	m.line("streams_find_failures_total %d\n", s.Sched.FindFailures)

	m.meters("streams_contention", "Free-structure contention events by kind.", "kind", s.Sched.Contention, "")
	m.meters("streams_faults", "Fault-containment events by kind.", "kind", s.Sched.Faults, "")
	m.meters("streams_chain", "Inline chain execution meters.", "kind", s.Sched.Chain, "")
	m.meters("streams_vm", "Fused bytecode dispatch meters.", "kind", s.Sched.VM, "")

	m.family("streams_level", "gauge", "Elastic thread level.")
	m.line("streams_level %d\n", s.Level)
	m.family("streams_backlog", "gauge", "Total queue occupancy across all edges.")
	m.line("streams_backlog %d\n", s.Backlog)

	if len(c.edges) > 0 {
		m.family("streams_edge_depth", "gauge", "Per-edge queue occupancy at the last sample.")
		for i, e := range c.edges {
			if i < len(s.Depth) {
				m.line("streams_edge_depth{port=\"%d\",from=\"%s\",to=\"%s\"} %d\n",
					e.Port, escapeLabel(e.From), escapeLabel(e.To), s.Depth[i])
			}
		}
		m.family("streams_edge_resched", "counter", "Per-edge reSchedule entries (full-queue pushes).")
		for i, e := range c.edges {
			if i < len(s.Resched) {
				m.line("streams_edge_resched_total{port=\"%d\",from=\"%s\",to=\"%s\"} %d\n",
					e.Port, escapeLabel(e.From), escapeLabel(e.To), s.Resched[i])
			}
		}
		m.family("streams_edge_blocked_seconds", "counter", "Per-edge producer blocked time.")
		for i, e := range c.edges {
			if i < len(s.BlockedNs) {
				m.line("streams_edge_blocked_seconds_total{port=\"%d\",from=\"%s\",to=\"%s\"} %.6f\n",
					e.Port, escapeLabel(e.From), escapeLabel(e.To),
					float64(s.BlockedNs[i])/float64(time.Second))
			}
		}
	}

	if s.LatCount > 0 {
		m.family("streams_latency_seconds", "gauge", "End-to-end latency quantiles (log2-bucket upper bounds).")
		m.line("streams_latency_seconds{quantile=\"0.5\"} %.6f\n", s.LatP50.Seconds())
		m.line("streams_latency_seconds{quantile=\"0.99\"} %.6f\n", s.LatP99.Seconds())
	}

	if s.Ingest != nil {
		m.meters("streams_ingest", "Ingest admission dispositions.", "disposition", s.Ingest.Totals, "")
		m.meters("streams_ingest_conn_events", "Ingest connection events by kind.", "kind", s.Ingest.Totals, "conn_events")
		m.family("streams_ingest_overloaded", "gauge", "Whether the global overload gate is tripped.")
		ov := 0
		if s.Ingest.Overloaded {
			ov = 1
		}
		m.line("streams_ingest_overloaded %d\n", ov)
		m.family("streams_tenant", "counter", "Per-tenant admission dispositions.")
		for _, tn := range s.Ingest.Tenants {
			for _, kv := range []struct {
				k string
				v uint64
			}{
				{"admitted", tn.Admitted}, {"shed", tn.Shed}, {"throttled", tn.Throttled},
			} {
				m.line("streams_tenant_total{tenant=\"%s\",disposition=\"%s\"} %d\n",
					escapeLabel(tn.Name), kv.k, kv.v)
			}
		}
		m.family("streams_tenant_queue_depth", "gauge", "Per-tenant admission queue occupancy.")
		for _, tn := range s.Ingest.Tenants {
			m.line("streams_tenant_queue_depth{tenant=\"%s\"} %d\n", escapeLabel(tn.Name), tn.Depth)
		}
	}

	m.line("# EOF\n")
	return m.err
}

// Family summarizes one metric family found by ParseExposition.
type Family struct {
	Name    string
	Type    string
	Samples int
}

// ParseExposition validates an OpenMetrics text exposition — the
// subset this package emits, strictly — and returns the families seen.
// It enforces the rules a scraper depends on: one TYPE declaration per
// family, samples grouped under their declaration, counter samples
// suffixed _total, parseable values, well-formed label syntax, and the
// mandatory # EOF terminator as the final line.
func ParseExposition(r io.Reader) (map[string]Family, error) {
	families := map[string]Family{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	current := "" // family the sample lines must belong to
	sawEOF := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if line == "" {
			return nil, fmt.Errorf("line %d: blank line (not allowed in OpenMetrics)", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP" && fields[1] != "UNIT") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE missing type", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "info", "stateset", "unknown":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := families[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				families[name] = Family{Name: name, Type: typ}
				current = name
			}
			continue
		}
		name, rest, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam, ok := matchFamily(families, current, name)
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q outside its family's TYPE block", lineNo, name)
		}
		value := strings.Fields(rest)
		if len(value) < 1 || len(value) > 2 {
			return nil, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		if _, err := strconv.ParseFloat(value[0], 64); err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, value[0], err)
		}
		f := families[fam]
		f.Samples++
		families[fam] = f
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("missing # EOF terminator")
	}
	return families, nil
}

// matchFamily checks that a sample named name belongs to the family
// whose TYPE block we are in, honoring the counter _total suffix rule.
func matchFamily(families map[string]Family, current, name string) (string, bool) {
	f, ok := families[current]
	if !ok {
		return "", false
	}
	switch f.Type {
	case "counter":
		if name == current+"_total" || name == current+"_created" {
			return current, true
		}
	default:
		if name == current {
			return current, true
		}
	}
	return "", false
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// splitSample splits one sample line into metric name and the
// value(+timestamp) remainder, validating the label set syntax.
func splitSample(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] == ' ' {
		return name, line[i+1:], nil
	}
	// Parse {k="v",...} with escape-aware scanning.
	j := i + 1
	for {
		if j >= len(line) {
			return "", "", fmt.Errorf("unterminated label set in %q", line)
		}
		if line[j] == '}' {
			j++
			break
		}
		// label name
		k := j
		for j < len(line) && line[j] != '=' {
			j++
		}
		if j >= len(line) || !validMetricName(strings.TrimPrefix(line[k:j], ",")) {
			return "", "", fmt.Errorf("bad label name in %q", line)
		}
		j++ // '='
		if j >= len(line) || line[j] != '"' {
			return "", "", fmt.Errorf("unquoted label value in %q", line)
		}
		j++
		for j < len(line) && line[j] != '"' {
			if line[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(line) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		j++ // closing quote
		if j < len(line) && line[j] == ',' {
			j++
		}
	}
	if j >= len(line) || line[j] != ' ' {
		return "", "", fmt.Errorf("missing value in %q", line)
	}
	return name, line[j+1:], nil
}
