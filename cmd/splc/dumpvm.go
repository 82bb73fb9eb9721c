package main

import (
	"fmt"
	"io"

	"streams/internal/graph"
	"streams/internal/vm"
)

// dumpPrograms prints every operator's compiled bytecode program in
// node order (-dump-vm). Logic the VM compiler rejected is listed as a
// closure fall-back, so the output doubles as a "why didn't this fuse"
// diagnostic; operators that have no logic to compile (sources, sinks,
// @parallel splitters) are listed as built-ins.
func dumpPrograms(w io.Writer, g *graph.Graph) {
	for _, n := range g.Nodes {
		p, ok := n.Op.(vm.Programmed)
		if !ok {
			fmt.Fprintf(w, "node %3d  %-20s builtin (no logic)\n", n.ID, n.Op.Name())
			continue
		}
		if p.VMProgram() == nil {
			fmt.Fprintf(w, "node %3d  %-20s closure (no program)\n", n.ID, n.Op.Name())
			continue
		}
		fmt.Fprintf(w, "node %3d  %s\n", n.ID, n.Op.Name())
		fmt.Fprint(w, vm.Disasm(p.VMProgram()))
	}
}
