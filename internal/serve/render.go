package serve

import (
	"fmt"
	"strings"

	"repro/internal/flow"
)

// RenderReport renders the deterministic, human-readable summary of a
// completed compilation: the structural design report, the controller
// line (from the control table the validate stage derived), and the
// gate-equivalent cost. This is the single source of truth for that text —
// cmd/daa prints it for local runs and the daemon embeds it in
// SynthesizeResponse.Report — which is what makes remote responses
// byte-identical to local output.
func RenderReport(res *flow.Result) string {
	var b strings.Builder
	b.WriteString(res.Design.Report())
	cs := res.Control.Stats()
	fmt.Fprintf(&b, "  controller: %d states, %d control assertions (widest step %d)\n",
		cs.States, cs.Signals, cs.MaxSignals)
	fmt.Fprintf(&b, "\ngate equivalents: %v\n", res.Cost)
	return b.String()
}
