package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detwalk forbids nondeterminism sources in the packages whose behaviour
// must be a pure function of (config, seed): the lockstep engine, the
// protocol state machines, the scenario registry, and the trial harness.
// Every cross-runtime equivalence claim in the repo — live ≡ sim at Δ=1,
// serial ≡ sharded stepping, compact ≡ map node layout, chaos replay —
// rests on those packages never reading wall-clock time, global randomness, or Go's
// randomized map iteration order into protocol state (DESIGN.md §5, §8).
//
// Audited sites opt out with `//ccba:nondeterministic-ok <reason>`.
var Detwalk = &Analyzer{
	Name:      "detwalk",
	Directive: "nondeterministic-ok",
	Doc: "forbid wall-clock reads, global math/rand, and unsorted map iteration " +
		"in the deterministic packages",
	Run: runDetwalk,
}

// detwalkTimeFuncs are the package-level time functions that read the wall
// clock or schedule on it. time.Duration arithmetic and time.Time
// formatting stay legal: values, not clocks.
var detwalkTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
	"Tick": true,
}

// detwalkExcluded subtrees host live I/O or wall-clock measurement by
// design: transports dial and time out, the cluster runtime arms real
// deadlines, experiments report wall-clock columns, and the analysis
// tooling itself is not protocol code.
var detwalkExcluded = []string{
	"ccba/internal/transport",
	"ccba/internal/cluster",
	"ccba/internal/experiments",
	"ccba/internal/analysis",
}

// detwalkScoped reports whether the package at path carries the
// determinism obligation.
func detwalkScoped(path string) bool {
	if path != "ccba" && !strings.HasPrefix(path, "ccba/internal/") {
		return false
	}
	for _, ex := range detwalkExcluded {
		if path == ex || strings.HasPrefix(path, ex+"/") {
			return false
		}
	}
	return true
}

func runDetwalk(p *Pass) {
	if !detwalkScoped(p.Pkg.Path()) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			switch importPath(imp) {
			case "math/rand", "math/rand/v2":
				p.Reportf(imp.Pos(), "deterministic package %s imports %s: derive randomness from the seeded coins (prf, netsim.Mix64)", p.Pkg.Path(), importPath(imp))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				if isPkgLevelOf(fn, "time") && detwalkTimeFuncs[fn.Name()] {
					p.Reportf(n.Pos(), "call to time.%s in deterministic package %s: wall-clock values must not feed protocol state", fn.Name(), p.Pkg.Path())
				}
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if collectedAndSorted(p, f, n) {
					return true
				}
				p.Reportf(n.Pos(), "range over map in deterministic package %s: iteration order is randomized — sort the keys before use", p.Pkg.Path())
			}
			return true
		})
	}
}

// collectedAndSorted recognizes the one blessed map-iteration idiom: a
// loop whose body only appends keys/values to local slices, each of which
// the same function later passes to a sort (or slices) call. The iteration
// order never escapes, so the randomization cannot either.
func collectedAndSorted(p *Pass, file *ast.File, rng *ast.RangeStmt) bool {
	targets := map[types.Object]bool{}
	for _, stmt := range rng.Body.List {
		obj := appendTarget(p.Info, stmt)
		if obj == nil {
			return false
		}
		targets[obj] = true
	}
	if len(targets) == 0 {
		return false
	}
	fn := enclosingFunc(file, rng)
	if fn == nil {
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		callee := calleeFunc(p.Info, call)
		if !isPkgLevelOf(callee, "sort") && !isPkgLevelOf(callee, "slices") {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); targets[obj] {
				delete(targets, obj)
			}
		}
		return true
	})
	return len(targets) == 0
}

// appendTarget returns the object of s's append target when stmt has the
// exact shape `s = append(s, ...)`, else nil.
func appendTarget(info *types.Info, stmt ast.Stmt) types.Object {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil
	}
	if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil
	}
	obj := info.ObjectOf(lhs)
	if obj == nil || obj != info.ObjectOf(first) {
		return nil
	}
	return obj
}

// enclosingFunc returns the function declaration of file whose body
// contains n, or nil.
func enclosingFunc(file *ast.File, n ast.Node) *ast.FuncDecl {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if fn.Body.Pos() <= n.Pos() && n.End() <= fn.Body.End() {
			return fn
		}
	}
	return nil
}
