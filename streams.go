// Package streams is a Go stream-processing runtime reproducing the
// scheduler described in "Low-Synchronization, Mostly Lock-Free, Elastic
// Scheduling for Streaming Runtimes" (Schneider & Wu, PLDI 2017) — the
// dynamic, elastic operator scheduler shipped in IBM Streams 4.2.
//
// The programming model is SPL's asynchronous dataflow: operators process
// continually arriving tuples and communicate exclusively over ordered
// streams. Applications are built either directly (NewTopology, Add,
// Connect) or by compiling a mini-SPL program (CompileSPL), and executed
// by a processing element under one of three threading models:
//
//   - ModelManual:    one thread per source, direct function calls.
//   - ModelDedicated: one thread per operator input port.
//   - ModelDynamic:   the paper's scalable scheduler; any thread may
//     execute any operator, and with Elastic set the number of threads
//     adapts at runtime to maximize throughput.
//
// A minimal program:
//
//	top := streams.NewTopology()
//	src := top.Add(&streams.Generator{Limit: 1e6}, 0, 1)
//	wrk := top.Add(&streams.Worker{Cost: 100}, 1, 1)
//	snk := &streams.Sink{}
//	out := top.Add(snk, 1, 0)
//	top.Connect(src, 0, wrk, 0)
//	top.Connect(wrk, 0, out, 0)
//	job, err := streams.Run(top, streams.RunConfig{Model: streams.ModelDynamic, Threads: 4})
//	if err != nil { ... }
//	job.Wait()
//	fmt.Println(snk.Count())
package streams

import (
	"fmt"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
)

// Core data-flow types, re-exported from the internal packages so user
// code needs only this import.
type (
	// Tuple is the unit of data flow; see NewData.
	Tuple = tuple.Tuple
	// Submitter delivers operator output tuples downstream.
	Submitter = graph.Submitter
	// Operator is user tuple-processing logic.
	Operator = graph.Operator
	// Source is an operator that generates tuples on its own thread.
	Source = graph.Source
	// Graph is a validated stream graph.
	Graph = graph.Graph
)

// Operator library re-exports.
type (
	// Generator emits tuples at maximum rate.
	Generator = ops.Generator
	// Worker burns a configurable number of flops per tuple.
	Worker = ops.Worker
	// Sink counts (and optionally observes) delivered tuples.
	Sink = ops.Sink
	// Filter drops tuples failing a predicate.
	Filter = ops.Filter
	// Custom runs an arbitrary per-tuple function.
	Custom = ops.Custom
	// Functor maps each tuple through a function.
	Functor = ops.Functor
	// RoundRobinSplit spreads a stream across its output ports.
	RoundRobinSplit = ops.RoundRobinSplit
)

// NewData builds a data tuple from up to eight payload words.
func NewData(words ...uint64) Tuple { return tuple.NewData(words...) }

// Model selects a threading model.
type Model = pe.Model

// Threading models.
const (
	// ModelManual runs with no scheduler threads (source threads only).
	ModelManual = pe.Manual
	// ModelDedicated runs one thread per operator input port.
	ModelDedicated = pe.Dedicated
	// ModelDynamic runs the paper's dynamic scheduler.
	ModelDynamic = pe.Dynamic
)

// Sample is one elasticity trace observation.
type Sample = pe.Sample

// Topology accumulates operators and streams before execution.
type Topology struct {
	b      *graph.Builder
	frozen bool
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{b: graph.NewBuilder()} }

// Add places an operator with numIn input ports and numOut output ports,
// returning its node ID for Connect calls.
func (t *Topology) Add(op Operator, numIn, numOut int) int {
	return t.b.AddNode(op, numIn, numOut)
}

// Connect subscribes (toNode, toPort) to the stream on (fromNode,
// fromPort).
func (t *Topology) Connect(fromNode, fromPort, toNode, toPort int) {
	t.b.Connect(fromNode, fromPort, toNode, toPort)
}

// Build validates the topology into an executable Graph. A topology can
// be built once.
func (t *Topology) Build() (*Graph, error) {
	if t.frozen {
		return nil, fmt.Errorf("streams: topology already built")
	}
	t.frozen = true
	return t.b.Build()
}

// RunConfig configures a Job.
type RunConfig struct {
	// Model selects the threading model (default ModelDynamic).
	Model Model
	// Threads is the dynamic model's initial or static level.
	Threads int
	// Elastic turns on runtime thread adaptation (dynamic model only).
	Elastic bool
	// MaxThreads caps the elastic level; 0 means the logical CPU count.
	MaxThreads int
	// AdaptPeriod is the elasticity measurement period (default 10s).
	AdaptPeriod time.Duration
	// Trace observes every adaptation period (elastic runs). Under
	// Deploy every PE calls it, once per PE per period, so it may be
	// called concurrently.
	Trace func(Sample)
	// QueueCap overrides the per-port queue capacity (power of two;
	// default 512). A port's ring is allocated at its first push, so a
	// port that never queues costs no ring; a graph whose memory is
	// tight can set a smaller capacity.
	QueueCap int
	// CPUUsage overrides the CPU gate reading in [0,1]; nil reads
	// /proc/stat.
	CPUUsage func() (float64, error)
}

// Job is a running processing element.
type Job struct {
	pe *pe.PE
}

// Run builds the topology and starts executing it.
func Run(t *Topology, cfg RunConfig) (*Job, error) {
	g, err := t.Build()
	if err != nil {
		return nil, err
	}
	return RunGraph(g, cfg)
}

// RunGraph starts executing an already-built graph.
func RunGraph(g *Graph, cfg RunConfig) (*Job, error) {
	p, err := pe.New(g, cfg.peConfig())
	if err != nil {
		return nil, err
	}
	if err := p.Start(); err != nil {
		return nil, err
	}
	return &Job{pe: p}, nil
}

// peConfig is the one RunConfig → pe.Config conversion, shared by
// RunGraph, Deploy and SPLProgram.Run.
func (cfg RunConfig) peConfig() pe.Config {
	return pe.Config{
		Model:       cfg.Model,
		Threads:     cfg.Threads,
		Elastic:     cfg.Elastic,
		MaxThreads:  cfg.MaxThreads,
		AdaptPeriod: cfg.AdaptPeriod,
		Trace:       cfg.Trace,
		QueueCap:    cfg.QueueCap,
		CPUUsage:    cfg.CPUUsage,
	}
}

// Wait blocks until all sources finish and the graph drains, then
// releases every thread. Use with bounded sources.
func (j *Job) Wait() { j.pe.Wait() }

// Stop asks sources to stop, drains in-flight tuples and releases every
// thread. Use with unbounded sources.
func (j *Job) Stop() { j.pe.Stop() }

// Done is closed when the graph has drained.
func (j *Job) Done() <-chan struct{} { return j.pe.Done() }

// Executed returns tuples processed across all operators since start —
// the PE-wide throughput basis the elasticity algorithm uses.
func (j *Job) Executed() uint64 { return j.pe.Executed() }

// SinkDelivered returns tuples delivered to sink operators — the
// end-to-end application throughput of the paper's §5.1–5.3.
func (j *Job) SinkDelivered() uint64 { return j.pe.SinkDelivered() }

// Level returns the current thread level.
func (j *Job) Level() int { return j.pe.Level() }
