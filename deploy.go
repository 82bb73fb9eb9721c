package streams

import "streams/internal/fuse"

// Deployment is a multi-PE execution of one topology: operators are
// fused into `parts` processing elements and streams crossing PE
// boundaries travel over loopback TCP, the way Streams deploys
// applications across hosts.
type Deployment struct {
	d *fuse.Deployment
}

// Deploy partitions the topology into parts PEs (balanced contiguous
// blocks of a topological order) and starts nothing yet; call Start.
// Boundary streams carry only tuple payload words — keep Ref-payload
// edges inside one PE (see internal/xport).
func Deploy(t *Topology, parts int, cfg RunConfig) (*Deployment, error) {
	g, err := t.Build()
	if err != nil {
		return nil, err
	}
	d, err := fuse.Plan(g, parts, cfg.peConfig())
	if err != nil {
		return nil, err
	}
	return &Deployment{d: d}, nil
}

// Start launches every PE.
func (d *Deployment) Start() error { return d.d.Start() }

// Wait drains the deployment front to back (bounded sources).
func (d *Deployment) Wait() { d.d.Wait() }

// Stop ends an unbounded run and drains in-flight tuples.
func (d *Deployment) Stop() { d.d.Stop() }

// Err returns the first boundary-transport error, if any.
func (d *Deployment) Err() error { return d.d.Err() }

// PEs returns the number of processing elements in the deployment.
func (d *Deployment) PEs() int { return len(d.d.PEs) }
