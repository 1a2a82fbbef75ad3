package analysis

import (
	"go/ast"
	"go/token"
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
//     that only appends to slices, each of which the same function sorts
//     after the loop) or carry an allow-directive.
//   - wall clock / global randomness: time.Now, time.Since, and anything
//     from math/rand are flagged in the journal/replay/key/render files,
//     where output must be a pure function of the input.
//
// Packages outside this repository's module (the test fixtures) are
// treated as fully in scope for both checks.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc: "no unsorted map iteration or wall-clock/randomness in determinism-critical paths\n\n" +
		"Scope: repro/internal/{prod,core,rtl,bind,alloc,cost,sched} entirely (map ranging),\n" +
		"plus flow key/cosim/knobs/explore and serve render/explain/shard/explore/frame files;\n" +
		"the clock/randomness check runs in journal, replay, wire, provenance, key, render,\n" +
		"explain, knob, and explore files. The collect-and-sort idiom (a range body that\n" +
		"only appends, followed in the same function by a sort.*, slices.Sort* or local\n" +
		"sort* call on each collected slice) is recognized; sanctioned exceptions carry\n" +
		"//daalint:allow detmap <reason>.",
	Run: runDetmap,
}

// detmapPackages scopes the map-range check: package import path -> base
// file names ("" key means the whole package). Fixture packages (paths
// outside repro) are always in scope.
var detmapPackages = map[string][]string{
	"repro/internal/prod": nil, // whole package: match order is the firing order
	"repro/internal/core": nil, // whole package: rule actions feed the journal
	// The allocators and what they build on: their output lands in
	// designs, reports and Verilog.
	"repro/internal/rtl":   nil,
	"repro/internal/bind":  nil,
	"repro/internal/alloc": nil,
	"repro/internal/cost":  nil,
	"repro/internal/sched": nil,
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
		var stack []ast.Node // the path from f to the node being visited
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.RangeStmt:
				if rangeOn {
					checkMapRange(p, n, enclosingBody(stack))
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

// enclosingBody returns the body of the innermost function on the stack.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// checkMapRange flags ranging over a map unless it is the collect-then-sort
// idiom: the loop body only appends to slices, and the enclosing function
// body sorts each of them after the loop.
func checkMapRange(p *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	t := p.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	collected := collectTargets(rs.Body)
	if collected == nil {
		p.Reportf(rs.Pos(),
			"iteration over map %s has nondeterministic order; collect the keys, sort, and index (or annotate //daalint:allow detmap <reason>)", exprString(rs.X))
		return
	}
	for _, slice := range collected {
		if !sortedAfter(p, fnBody, rs.End(), slice) {
			p.Reportf(rs.Pos(),
				"iteration over map %s has nondeterministic order: it collects into %s, which this function never sorts afterwards (sort it, or annotate //daalint:allow detmap <reason>)", exprString(rs.X), slice)
			return
		}
	}
}

// collectTargets returns the slices the loop body appends to when every
// statement in it is an append — the order-insensitive half of the
// collect-then-sort idiom — and nil otherwise.
func collectTargets(body *ast.BlockStmt) []string {
	if body == nil || len(body.List) == 0 {
		return nil
	}
	var out []string
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return nil
		}
		out = append(out, types.ExprString(as.Lhs[0]))
	}
	return out
}

// sortedAfter reports whether body sorts slice at a position after pos:
// some call to a sort function, to a slices.Sort* function, or to a local
// function whose name starts with "sort" takes slice as its first argument.
func sortedAfter(p *Pass, body *ast.BlockStmt, pos token.Pos, slice string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() > pos && len(call.Args) > 0 &&
			isSortCall(p, call) && types.ExprString(call.Args[0]) == slice {
			found = true
		}
		return !found
	})
	return found
}

// isSortCall reports whether call invokes a function of package sort, a
// slices.Sort* function, or a local function named sort*.
func isSortCall(p *Pass, call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return strings.HasPrefix(fn.Name, "sort")
	case *ast.SelectorExpr:
		x, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		pkg, ok := p.TypesInfo.Uses[x].(*types.PkgName)
		if !ok {
			return false
		}
		switch pkg.Imported().Path() {
		case "sort":
			return true
		case "slices":
			return strings.HasPrefix(fn.Sel.Name, "Sort")
		}
	}
	return false
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
