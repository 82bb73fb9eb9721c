package main

import (
	"fmt"
	"io"

	"streams/internal/pe"
	"streams/internal/spl"
)

// chainModulus is the Filter's modulus; the seed chooses which residue
// class of r it drops.
const chainModulus = 7

// chainProgram is spl_chain's source: a Beacon, three arithmetic
// Customs and a Filter, all of which the SPL compiler lowers to
// bytecode, ending in a FileSink.
func chainProgram(iterations int, residue int64) string {
	return fmt.Sprintf(`
composite Main {
  graph
    stream<int64 x, int64 y> N = Beacon() { param iterations: %d; }
    stream<int64 a, int64 b> S1 = Custom(N) {
      logic onTuple N: { submit({ a = x * 3 + y, b = x - 1 }, S1); }
    }
    stream<int64 c> S2 = Custom(S1) {
      logic onTuple S1: { submit({ c = a * a + b * 2 }, S2); }
    }
    stream<int64 r> S3 = Custom(S2) {
      logic onTuple S2: { submit({ r = c %% 1000 + 7 }, S3); }
    }
    stream<int64 r> Kept = Filter(S3) { param filter: r %% %d != %d; }
    () as Out = FileSink(Kept) { param file: "chain.txt"; }
}
`, iterations, chainModulus, residue)
}

// chainReference is the closed form of chainProgram's output: how many
// r values survive the filter and their sum. Beacon sets both x and y
// to the iteration number.
func chainReference(iterations int, residue int64) (count uint64, sum int64) {
	for i := int64(0); i < int64(iterations); i++ {
		a, b := i*3+i, i-1
		c := a*a + b*2
		r := c%1000 + 7
		if r%chainModulus != residue {
			count++
			sum += r
		}
	}
	return count, sum
}

type chainWorkload struct {
	iterations int
	residue    int64
	src        string
	wantCount  uint64
	wantSum    int64
}

func newChainWorkload(seed int64, iterations int) *chainWorkload {
	w := &chainWorkload{iterations: iterations, residue: int64(splitmix64(uint64(seed)) % chainModulus)}
	w.src = chainProgram(iterations, w.residue)
	w.wantCount, w.wantSum = chainReference(iterations, w.residue)
	return w
}

func (w *chainWorkload) inputs() uint64 { return uint64(w.iterations) }

func (w *chainWorkload) compile(opts spl.Options, out io.WriteCloser) (*spl.Compiled, error) {
	opts.WriterFor = func(string) (io.WriteCloser, error) { return out, nil }
	return spl.Compile(w.src, opts)
}

func (w *chainWorkload) build() (*closedJob, error) {
	got := &sumWriter{sink: newProgress(w.wantCount)}
	c, err := w.compile(spl.Options{}, got)
	if err != nil {
		return nil, err
	}
	return &closedJob{
		g:    c.Graph,
		sink: got.sink,
		check: func(*pe.PE) (uint64, error) {
			if err := c.Sinks["Out"].Err(); err != nil {
				return 0, err
			}
			return w.diff(got), nil
		},
	}, nil
}

// diff counts the owed tuples got is wrong about.
func (w *chainWorkload) diff(got *sumWriter) uint64 {
	return mismatch(w.wantCount, got.count, got.sum == w.wantSum && got.bad == 0)
}
