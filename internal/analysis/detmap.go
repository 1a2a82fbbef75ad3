package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Detmap enforces byte-determinism in the paths whose output is promised
// to be reproducible: the production engine and its journal/replay
// machinery, the rule base in core, flow's cache-key canonicalization and
// cosimulation, and serve's pre-rendered response bodies. Two checks:
//
//   - map iteration: `for ... range m` over a map is Go-randomized order;
//     in scope it must either be the collect-keys-then-sort idiom (a body
//     that only appends to a slice) or carry an allow-directive.
//   - wall clock / global randomness: time.Now, time.Since, and anything
//     from math/rand are flagged in the journal/replay/key/render files,
//     where output must be a pure function of the input.
//
// Packages outside this repository's module (the test fixtures) are
// treated as fully in scope for both checks.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc: "no unsorted map iteration or wall-clock/randomness in determinism-critical paths\n\n" +
		"Scope: repro/internal/prod and repro/internal/core entirely (map ranging), plus\n" +
		"flow key/cosim/knobs/explore and serve render/explain/shard/explore/frame files; the\n" +
		"clock/randomness check runs in journal, replay, wire, provenance, key, render,\n" +
		"explain, knob, and explore files. The\n" +
		"collect-and-sort idiom (a range body that only appends) is recognized;\n" +
		"sanctioned exceptions carry //daalint:allow detmap <reason>.",
	Run: runDetmap,
}

// detmapPackages scopes the map-range check: package import path -> base
// file names ("" key means the whole package). Fixture packages (paths
// outside repro) are always in scope.
var detmapPackages = map[string][]string{
	"repro/internal/prod": nil, // whole package: match order is the firing order
	"repro/internal/core": nil, // whole package: rule actions feed the journal
	// knobs.go and explore.go carry the cache-key encoding and the
	// byte-pinned front ordering of /v1/explore.
	"repro/internal/flow":    {"key.go", "cosim.go", "knobs.go", "explore.go"},
	"repro/internal/serve":   {"render.go", "explain.go", "shard.go", "explore.go", "frame.go"},
	"repro/internal/cluster": {"ring.go"}, // ring construction and lookup order must be stable across coordinators
}

// clockFiles names the file-name substrings where the wall-clock and
// randomness check applies: the record/replay and canonical-output files.
var clockFiles = []string{"journal", "replay", "wire", "provenance", "key", "render", "explain", "cosim", "ring", "shard", "knob", "explore"}

// detmapRangeScoped reports whether the map-range check covers file.
func detmapRangeScoped(pkgPath, file string) bool {
	if !strings.HasPrefix(pkgPath, "repro") {
		return true // fixtures
	}
	files, ok := detmapPackages[pkgPath]
	if !ok {
		return false
	}
	if files == nil {
		return true
	}
	base := filepath.Base(file)
	for _, f := range files {
		if base == f {
			return true
		}
	}
	return false
}

// detmapClockScoped reports whether the clock/randomness check covers file.
func detmapClockScoped(pkgPath, file string) bool {
	if !strings.HasPrefix(pkgPath, "repro") {
		return true // fixtures
	}
	if _, ok := detmapPackages[pkgPath]; !ok {
		return false
	}
	base := filepath.Base(file)
	for _, sub := range clockFiles {
		if strings.Contains(base, sub) {
			return true
		}
	}
	return false
}

func runDetmap(p *Pass) error {
	for _, f := range p.Files {
		file := p.Fset.Position(f.Pos()).Filename
		rangeOn := detmapRangeScoped(p.PkgPath, file)
		clockOn := detmapClockScoped(p.PkgPath, file)
		if !rangeOn && !clockOn {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if rangeOn {
					checkMapRange(p, n)
				}
			case *ast.SelectorExpr:
				if clockOn {
					checkClock(p, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags ranging over a map unless the body is the
// collect-keys idiom (statements that only append to slices, to be sorted
// after the loop).
func checkMapRange(p *Pass, rs *ast.RangeStmt) {
	t := p.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isCollectBody(rs.Body) {
		return
	}
	p.Reportf(rs.Pos(),
		"iteration over map %s has nondeterministic order; collect the keys, sort, and index (or annotate //daalint:allow detmap <reason>)", exprString(rs.X))
}

// isCollectBody reports whether every statement in the loop body is an
// append into a slice — the order-insensitive half of the
// collect-then-sort idiom.
func isCollectBody(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
	}
	return true
}

// checkClock flags wall-clock reads and math/rand uses.
func checkClock(p *Pass, sel *ast.SelectorExpr) {
	obj := p.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" || obj.Name() == "Since" {
			p.Reportf(sel.Pos(),
				"time.%s in a determinism-critical path: output here must be a pure function of the input (//daalint:allow detmap <reason> if this is observability only)", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		p.Reportf(sel.Pos(),
			"math/rand in a determinism-critical path: use a seeded local generator threaded through the call")
	}
}
