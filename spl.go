package streams

import (
	"io"

	"streams/internal/pe"
	"streams/internal/spl"
)

// SPLOptions configures mini-SPL compilation.
type SPLOptions struct {
	// Main names the main composite (default "Main", or the only one).
	Main string
	// ReaderFor opens FileSource inputs; nil uses os.Open.
	ReaderFor func(file string) (io.ReadCloser, error)
	// WriterFor opens FileSink outputs; nil uses os.Create.
	WriterFor func(file string) (io.WriteCloser, error)
}

// SPLProgram is a compiled mini-SPL program: a fused stream graph plus
// the program's submission-time directives.
type SPLProgram struct {
	compiled *spl.Compiled
}

// CompileSPL compiles a mini-SPL source file (see internal/spl for the
// supported subset, which covers the paper's Figure 1).
func CompileSPL(src string, opts SPLOptions) (*SPLProgram, error) {
	c, err := spl.Compile(src, spl.Options{
		Main:      opts.Main,
		ReaderFor: opts.ReaderFor,
		WriterFor: opts.WriterFor,
	})
	if err != nil {
		return nil, err
	}
	return &SPLProgram{compiled: c}, nil
}

// Graph returns the lowered stream graph.
func (p *SPLProgram) Graph() *Graph { return p.compiled.Graph }

// Threading returns the @threading model directive and thread count; ok
// is false when the program carries no annotation.
func (p *SPLProgram) Threading() (model Model, threads int, ok bool) {
	switch p.compiled.Threading {
	case "manual":
		return ModelManual, p.compiled.Threads, true
	case "dedicated":
		return ModelDedicated, p.compiled.Threads, true
	case "dynamic":
		return ModelDynamic, p.compiled.Threads, true
	default:
		return ModelDynamic, 0, false
	}
}

// SinkCounts returns, per FileSink alias, the number of tuples written
// so far.
func (p *SPLProgram) SinkCounts() map[string]uint64 {
	out := make(map[string]uint64, len(p.compiled.Sinks))
	for name, s := range p.compiled.Sinks {
		out[name] = s.Count()
	}
	return out
}

// Run starts the compiled program. Zero-value RunConfig fields default
// to the program's own @threading annotation.
func (p *SPLProgram) Run(cfg RunConfig) (*Job, error) {
	if model, threads, ok := p.Threading(); ok {
		if cfg.Model == pe.Dynamic && !cfg.Elastic && cfg.Threads == 0 {
			cfg.Model = model
		}
		if cfg.Threads == 0 && threads > 0 {
			cfg.Threads = threads
		}
	}
	return RunGraph(p.compiled.Graph, cfg)
}
