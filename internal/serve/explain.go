package serve

import (
	"fmt"

	"repro/internal/flow"
)

// The explain store keeps the provenance index of recently synthesized
// designs so GET /v1/explain can answer "why does this component exist?"
// without re-running the engine. It is populated only by synthesize
// requests that asked for provenance, keyed by the same
// (content hash, canonical option key) identity as the design cache, and
// bounded by its own LRU: an evicted (or never-journaled) design answers
// 404 and the client re-synthesizes with provenance on.

// DefaultExplainCacheEntries bounds the explain store.
const DefaultExplainCacheEntries = 64

// explainKey addresses a journaled design: source content hash plus
// canonical option key. It is returned to the client in the synthesize
// response's provenance summary.
func explainKey(in flow.Input, opt flow.Options) string {
	return fmt.Sprintf("%x|%s", in.ContentHash(), opt.Key())
}
