package spl

import (
	"io"
	"os"
	"strings"
	"testing"

	"streams/internal/vm"
)

// FuzzCompile feeds arbitrary source text to Compile, which must return
// an error or a program whose every operator bytecode verifies — never
// panic. File IO is stubbed, so no input reaches the file system. Seeds:
// the paper's Figure 1 program as shipped, and the compile tests'
// programs, accepted and rejected.
func FuzzCompile(f *testing.F) {
	fig1, err := os.ReadFile("../../examples/loginfailures/loginfailures.spl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(fig1))
	f.Add(beaconProgram)
	f.Add(fig1Source + fig1Main)
	for _, tc := range compileErrorCases {
		f.Add(tc.src)
	}
	opts := Options{
		ReaderFor: func(string) (io.ReadCloser, error) { return io.NopCloser(strings.NewReader("")), nil },
		WriterFor: func(string) (io.WriteCloser, error) { return &memFile{}, nil },
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src, opts)
		if err != nil {
			return
		}
		for _, n := range c.Graph.Nodes {
			pr, ok := n.Op.(vm.Programmed)
			if !ok || pr.VMProgram() == nil {
				continue
			}
			if err := pr.VMProgram().Verify(); err != nil {
				t.Fatalf("operator %s: compiled program fails verification: %v\nsource:\n%s", n.Op.Name(), err, src)
			}
		}
	})
}
