// Quickstart: compile an ISPS description through the staged pipeline —
// parse → sema → build (Value Trace) → allocate (the DAA) → validate →
// cost — and print the resulting register-transfer design, with the
// per-stage wall time the pipeline recorded.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/flow"
)

// A minimal accumulator machine: one register, one adder, one decision.
const src = `
processor ACCUM {
    reg ACC<7:0>
    port in  DATA<7:0>
    port in  LOADIT
    port out RESULT<7:0>
    main step {
        if LOADIT {
            ACC := DATA
        } else {
            ACC := ACC + DATA
        }
        RESULT := ACC
    }
}`

func main() {
	// One call runs the whole pipeline. Input errors would come back as a
	// flow.DiagnosticList with file:line:col positions.
	res, err := flow.Compile(context.Background(),
		flow.Input{Name: "accum.isps", Source: src}, flow.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The result carries every intermediate: the analyzed AST (res.AST),
	// the synthesized structure with the Value Trace it binds
	// (res.Design.Trace), and the gate-equivalent cost.
	fmt.Printf("value trace: %s\n\n", res.Design.Trace.Stats())
	fmt.Print(res.Design.Report())
	fmt.Printf("\ngate equivalents: %v\n", res.Cost)
	fmt.Printf("rules fired: %d in %v\n\n",
		res.Synth.Stats.TotalFirings, res.Synth.Stats.Elapsed.Round(1000*1000))

	// Where the compile spent its time (daa -stage-timing prints the same).
	res.Trace.Write(os.Stdout)
}
