// Command vtdump prints the Value Trace of an ISPS description, either as
// indented text (default) or as a Graphviz digraph (-dot). The trace is
// built through the staged pipeline's front end (internal/flow), so parse
// and sema problems are reported with file:line:col positions and a caret
// (exit 2); usage mistakes exit 1.
//
// With -provenance the DOT output is annotated from a journaled synthesis
// of the same description: each operator node lists the rule firings whose
// journaled effects consumed it (phase/seq rule effect), connecting the
// behavioral trace to the decisions that turned it into structure.
//
// Usage:
//
//	vtdump -bench gcd
//	vtdump -in design.isps -dot > trace.dot
//	vtdump -bench gcd -dot -provenance > trace.dot
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/vt"
)

func main() {
	var (
		inFile     = flag.String("in", "", "ISPS source file")
		benchName  = flag.String("bench", "", "embedded benchmark (see daa -list)")
		dot        = flag.Bool("dot", false, "emit Graphviz instead of text")
		provenance = flag.Bool("provenance", false, "annotate -dot nodes with the rule firings that consumed each operator")
	)
	flag.Parse()
	if err := run(os.Stdout, *inFile, *benchName, *dot, *provenance); err != nil {
		flow.WriteError(os.Stderr, "vtdump", err)
		os.Exit(flow.ExitCode(err))
	}
}

func run(w io.Writer, inFile, benchName string, dot, provenance bool) error {
	var in flow.Input
	var err error
	switch {
	case inFile != "" && benchName != "":
		return flow.Usagef("use either -in or -bench, not both")
	case benchName != "":
		in, err = bench.Input(benchName)
		if err != nil {
			return flow.Usagef("%v", err)
		}
	case inFile != "":
		in, err = flow.FileInput(inFile)
		if err != nil {
			return err
		}
	default:
		return flow.Usagef("pass -in file.isps or -bench name")
	}
	if provenance && !dot {
		return flow.Usagef("-provenance annotates the graph output; pass -dot as well")
	}
	ctx := context.Background()
	tr, err := flow.FrontEnd(ctx, in)
	if err != nil {
		return err
	}
	if !dot {
		return tr.Dump(w)
	}
	if !provenance {
		return tr.WriteDot(w)
	}
	// Journaled synthesis of the same input. A journaled compile refines a
	// copy of its own of the trace dumped here, and a copy keeps every
	// operator's ID (the replay decoder relies on this), so the journal's
	// op refs resolve against the unrefined trace.
	res, err := flow.Compile(ctx, in, flow.Options{Core: core.Options{Journal: true}})
	if err != nil {
		return err
	}
	hist := res.Journal().OpHistory()
	return tr.WriteDotAnnotated(w, func(op *vt.Op) []string {
		notes := hist[op.ID]
		lines := make([]string, 0, len(notes))
		for _, n := range notes {
			lines = append(lines, fmt.Sprintf("%s/%d %s: %s", n.Phase, n.Seq, n.Rule, n.Effect))
		}
		return lines
	})
}
