// Package nodeterm forbids nondeterminism in the packages whose output
// feeds job signatures, tile CRCs, stats folds, or serialized results.
//
// Rendering Elimination only discards work that is provably redundant: a
// job keyed by (trace CRC, config hash) may be eliminated because
// re-executing it is byte-identical. Wall-clock reads, the globally seeded
// math/rand source, and unordered map iteration silently break that
// guarantee — results still look plausible, signatures still match, but the
// bytes they stand for drift between runs. Those bugs surface (flakily) in
// the 10-minute determinism soaks; this analyzer surfaces them at lint
// time.
//
// Rules, in the deterministic packages — every package whose output feeds a
// simulated number, a trace or a checkpoint: gpusim, trace, sig, crc, geom,
// rast, tiling, texture, dram, cache, fb, shader, timing, energy, api, wire
// and workload:
//
//   - no wall-clock or timer calls (time.Now, time.Since, time.Until,
//     time.Tick, time.After, ...). time.Duration arithmetic is fine.
//   - no globally seeded randomness: math/rand package-level functions
//     (rand.Intn, rand.Float64, rand.Shuffle, ...) and all of crypto/rand.
//     Explicitly seeded generators (rand.New(rand.NewSource(seed))) are
//     deterministic and allowed.
//   - no `range` over a map unless the iteration is order-independent:
//     either the body is a commutative fold (counter/bitmask updates, map
//     rebuilds, deletes), or it only collects keys into a slice that is
//     sorted later in the same function.
//
// Everywhere else, a `range` over a map whose body directly emits bytes
// (fmt.Fprintf, Write*, Encode, ...) is flagged: serialized output must not
// depend on Go's randomized map iteration order. Collect the keys, sort,
// then emit.
//
// Deliberate exceptions carry `//lint:ignore nodeterm <why>`.
package nodeterm

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rendelim/internal/analysis"
)

// Analyzer is the nodeterm rule set.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall clock, global rand, and unordered map iteration where determinism is load-bearing",
	Run:  run,
}

// deterministicPkgs name the packages whose every output feeds signatures,
// CRCs, stats, traces or checkpoints; the full rule set applies there.
var deterministicPkgs = map[string]bool{
	"gpusim": true, "trace": true, "sig": true, "crc": true,
	"geom": true, "rast": true, "tiling": true, "texture": true,
	"dram": true, "cache": true, "fb": true,
	"shader": true, "timing": true, "energy": true, "api": true,
	"wire": true, "workload": true,
}

// wallClock are the time package functions that read or schedule off the
// wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTicker": true, "NewTimer": true,
}

// seededCtors are the math/rand constructors that take an explicit source
// or seed and are therefore reproducible.
var seededCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	det := deterministicPkgs[pass.Pkg.Name()]
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, det)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, det bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if det {
				checkCall(pass, n)
			}
		case *ast.RangeStmt:
			if analysis.IsMap(pass.TypesInfo, n.X) {
				checkMapRange(pass, fn, n, det)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name, ok := analysis.PkgFunc(pass.TypesInfo, call)
	if !ok {
		return
	}
	switch pkg {
	case "time":
		if wallClock[name] {
			pass.Reportf(call.Pos(), "time.%s in a deterministic package: wall-clock values reach signatures or serialized results", name)
		}
	case "math/rand", "math/rand/v2":
		if !seededCtors[name] {
			pass.Reportf(call.Pos(), "rand.%s uses the global seed in a deterministic package: use an explicitly seeded rand.New(rand.NewSource(seed))", name)
		}
	case "crypto/rand":
		pass.Reportf(call.Pos(), "crypto/rand.%s in a deterministic package: cryptographic randomness is never reproducible", name)
	}
}

// checkMapRange applies the map-iteration rules. In deterministic packages
// every map range must be provably order-independent; elsewhere only ranges
// that emit bytes directly are flagged.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, det bool) {
	if det {
		if commutativeBody(pass.TypesInfo, rng.Body) {
			return
		}
		if collectThenSort(pass.TypesInfo, fn, rng) {
			return
		}
		pass.Reportf(rng.Pos(), "map iteration order is random in a deterministic package: sort the keys first, or keep the body a commutative fold")
		return
	}
	if pos, emits := emitsBytes(rng.Body); emits {
		pass.Reportf(pos, "emitting inside a map range: output order follows Go's randomized map iteration — collect keys, sort, then emit")
	}
}

// commutativeBody reports whether every statement in the loop body is
// order-independent: compound-assign folds, inc/dec, stores into another
// map, and deletes. Plain assignments (e.g. argmax key tracking) are not —
// ties make the winner iteration-order dependent.
func commutativeBody(info *types.Info, body *ast.BlockStmt) bool {
	for _, st := range body.List {
		if !commutativeStmt(info, st) {
			return false
		}
	}
	return len(body.List) > 0
}

func commutativeStmt(info *types.Info, st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return true
		case token.ASSIGN:
			// A store into another map is order-independent (last write
			// per key wins and keys are distinct within one range pass).
			if len(st.Lhs) == 1 {
				if ix, ok := st.Lhs[0].(*ast.IndexExpr); ok && analysis.IsMap(info, ix.X) {
					return true
				}
			}
		}
		return false
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		// Guarded folds (e.g. conditional counting) stay commutative as
		// long as every branch is.
		if st.Init != nil || st.Else != nil {
			return false
		}
		return commutativeBody(info, st.Body)
	}
	return false
}

// collectThenSort recognizes the key-collection idiom: the loop body only
// appends the key to a slice, and that slice is sorted later in the same
// function before use.
func collectThenSort(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	// Look for sort.X(dst, ...) / slices.Sort(dst) after the loop.
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < rng.End() || len(c.Args) == 0 {
			return true
		}
		pkg, name, ok := analysis.PkgFunc(info, c)
		if !ok {
			return true
		}
		if !isSortCall(pkg, name) {
			return true
		}
		if arg, ok := c.Args[0].(*ast.Ident); ok && identObj(info, arg) == identObj(info, dst) {
			sorted = true
		}
		return true
	})
	return sorted
}

// isSortCall recognizes the std sorting entry points.
func isSortCall(pkg, name string) bool {
	switch pkg {
	case "sort":
		switch name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		return strings.HasPrefix(name, "Sort")
	}
	return false
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// emitterNames are call names whose presence inside a map-range body means
// bytes leave the process in iteration order.
func isEmitterName(name string) bool {
	return strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Fprint") ||
		strings.HasPrefix(name, "Print") || name == "Encode" || name == "WriteString"
}

// emitsBytes reports the first direct emission call in the body.
func emitsBytes(body *ast.BlockStmt) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if isEmitterName(fun.Sel.Name) {
				pos, found = call.Pos(), true
			}
		case *ast.Ident:
			if isEmitterName(fun.Name) {
				pos, found = call.Pos(), true
			}
		}
		return !found
	})
	return pos, found
}
