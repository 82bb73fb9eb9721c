// Package fuse implements submission-time fusion: partitioning one
// logical stream graph into several processing elements connected by
// network transports. Streams 4.2 performs fusion automatically when
// applications are deployed (§1 of the paper; the fusion algorithm
// itself is outside the paper's scope, which is why this package keeps a
// deliberately simple policy): the deployer decides how many PEs to use,
// operators are assigned to PEs, and streams that cross PE boundaries
// are serialized over the network (internal/xport).
//
// The policy here assigns operators to PEs as contiguous blocks of a
// topological order, balanced by operator count. Contiguity in topo
// order guarantees every cut edge points from a lower-numbered PE to a
// higher-numbered one, so deployments drain cleanly front to back.
package fuse

import (
	"fmt"
	"net"
	"time"

	"streams/internal/graph"
	"streams/internal/pe"
	"streams/internal/xport"
)

// Deployment is a set of PEs jointly executing one logical graph.
type Deployment struct {
	// PEs in topological order: PEs[0] holds the sources.
	PEs []*pe.PE
	// Graphs are the per-PE fused graphs, aligned with PEs.
	Graphs []*graph.Graph
	// Exports and Imports are the boundary transports, for error
	// inspection.
	Exports []*xport.Export
	Imports []*xport.Import
}

// Plan partitions g into `parts` PEs (clamped to the node count) and
// wires the cut streams over loopback TCP. Operator instances are shared
// with the original graph, so sinks and stateful operators remain
// inspectable by the caller. cfg applies to every PE.
//
// Cut streams carry only the tuple's inline payload words (see
// internal/xport); graphs whose tuples rely on Ref payloads (for
// example SPL-compiled graphs) must keep Ref-dependent edges inside one
// PE. On error every boundary listener it opened is closed again.
func Plan(g *graph.Graph, parts int, cfg pe.Config) (_ *Deployment, err error) {
	if parts < 1 {
		return nil, fmt.Errorf("fuse: parts must be positive")
	}
	if parts > len(g.Nodes) {
		parts = len(g.Nodes)
	}
	order := g.TopoOrder()
	partOf := make([]int, len(g.Nodes))
	// Balanced contiguous blocks: position i of the topo order lands in
	// part ⌊i·parts/len⌋, which uses every part and differs in size by at
	// most one node.
	for i, n := range order {
		partOf[n] = i * parts / len(order)
	}

	builders := make([]*graph.Builder, parts)
	for i := range builders {
		builders[i] = graph.NewBuilder()
	}
	// newID[n] is node n's ID within its part's builder.
	newID := make([]int, len(g.Nodes))
	for _, n := range order {
		node := g.Nodes[n]
		newID[n] = builders[partOf[n]].AddNode(node.Op, node.NumIn, node.NumOut)
	}

	d := &Deployment{}
	// boundary tracks one Export/Import pair per (source node, out port,
	// destination part).
	type cutKey struct{ node, port, dstPart int }
	type cutVal struct{ importNode int } // Import's node ID in dstPart
	cuts := map[cutKey]cutVal{}
	var listeners []net.Listener
	defer func() {
		if err != nil {
			for _, ln := range listeners {
				ln.Close()
			}
		}
	}()

	for _, n := range g.Nodes {
		srcPart := partOf[n.ID]
		for outPort, dests := range n.Outs {
			for _, pid := range dests {
				p := g.Ports[pid]
				dstPart := partOf[p.Node.ID]
				if dstPart == srcPart {
					builders[srcPart].Connect(newID[n.ID], outPort, newID[p.Node.ID], p.Index)
					continue
				}
				if dstPart < srcPart {
					return nil, fmt.Errorf("fuse: internal error: cut edge %d→%d points backwards", srcPart, dstPart)
				}
				key := cutKey{n.ID, outPort, dstPart}
				cv, ok := cuts[key]
				if !ok {
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						return nil, fmt.Errorf("fuse: boundary listener for %s:%d pe%d→pe%d: %w",
							n.Op.Name(), outPort, srcPart, dstPart, err)
					}
					listeners = append(listeners, ln)
					addr := ln.Addr().String()
					// The name carries the PE pair so a failed boundary is
					// identifiable from Err alone. The dial is one bounded
					// attempt; the Export retries it under its own jittered
					// backoff and retry budget.
					exp := xport.NewExportWith(
						fmt.Sprintf("Export[%s:%d pe%d→pe%d]", n.Op.Name(), outPort, srcPart, dstPart),
						func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) },
						xport.Options{Fault: cfg.Fault},
					)
					imp := xport.NewImport(
						fmt.Sprintf("Import[%s:%d pe%d→pe%d]", n.Op.Name(), outPort, srcPart, dstPart), ln)
					expNode := builders[srcPart].AddNode(exp, 1, 0)
					builders[srcPart].Connect(newID[n.ID], outPort, expNode, 0)
					impNode := builders[dstPart].AddNode(imp, 0, 1)
					cv = cutVal{importNode: impNode}
					cuts[key] = cv
					d.Exports = append(d.Exports, exp)
					d.Imports = append(d.Imports, imp)
				}
				builders[dstPart].Connect(cv.importNode, 0, newID[p.Node.ID], p.Index)
			}
		}
	}

	for i, b := range builders {
		fg, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("fuse: PE %d graph: %w", i, err)
		}
		p, err := pe.New(fg, cfg)
		if err != nil {
			return nil, fmt.Errorf("fuse: PE %d: %w", i, err)
		}
		d.Graphs = append(d.Graphs, fg)
		d.PEs = append(d.PEs, p)
	}
	return d, nil
}

// Start launches every PE, downstream first so imports are listening
// before exports dial (the transports tolerate either order; this just
// minimizes connection retries).
func (d *Deployment) Start() error {
	for i := len(d.PEs) - 1; i >= 0; i-- {
		if err := d.PEs[i].Start(); err != nil {
			return fmt.Errorf("fuse: starting PE %d: %w", i, err)
		}
	}
	return nil
}

// Wait drains the deployment front to back: the source PE drains first,
// its final punctuation crosses each boundary, and each downstream PE
// drains in turn.
func (d *Deployment) Wait() {
	for _, p := range d.PEs {
		p.Wait()
	}
}

// WaitTimeout drains the deployment front to back with one deadline over
// the whole drain. The returned error names the PE that failed to drain
// (with its diagnostic goroutine dump), or reports the first transport
// error — which names the boundary's PE pair — after a complete drain.
func (d *Deployment) WaitTimeout(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, p := range d.PEs {
		remain := time.Until(deadline)
		if remain <= 0 {
			remain = time.Millisecond
		}
		if err := p.WaitTimeout(remain); err != nil {
			return fmt.Errorf("fuse: PE %d: %w", i, err)
		}
	}
	return d.Err()
}

// Stop asks the source PE's sources to stop, then drains the rest.
func (d *Deployment) Stop() {
	if len(d.PEs) == 0 {
		return
	}
	d.PEs[0].Stop()
	for _, p := range d.PEs[1:] {
		p.Wait()
	}
}

// Err returns the first transport error across all boundaries, if any.
func (d *Deployment) Err() error {
	for _, e := range d.Exports {
		if err := e.Err(); err != nil {
			return err
		}
	}
	for _, im := range d.Imports {
		if err := im.Err(); err != nil {
			return err
		}
	}
	return nil
}
