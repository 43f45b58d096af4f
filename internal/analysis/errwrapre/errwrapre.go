// Package errwrapre keeps the error chain intact across the service's API
// boundary packages (jobs, server, cluster).
//
// httpError maps errors to status codes with errors.Is against the rerr
// sentinels (ErrBadTrace/ErrBadConfig/ErrUnknownBenchmark → 400,
// ErrOverloaded → 429, ErrClosed/ErrPeerUnavailable → 503,
// ErrPeerBadResponse → 502). That mapping only works while every layer
// preserves the chain: one fmt.Errorf("...: %v", err) between the sentinel
// and the handler silently downgrades a 400 into a 500 — and nothing fails
// until a client hits it. statusForError's table tests cover the mapping;
// this analyzer covers the plumbing.
//
// Rules, in the boundary packages:
//
//   - a call to fmt.Errorf with an error-typed argument must keep a %w
//     somewhere in its format: either wrap the error itself, or wrap a
//     sentinel while flattening the cause (the repo's
//     fmt.Errorf("%w: ...: %v", rerr.ErrBadTrace, err) idiom). A format
//     with no %w at all flattens the chain.
//   - errors.New inside a function body creates an unclassifiable dynamic
//     error; declare a package-level sentinel (or wrap one) instead so
//     statusForError can see it. Package-level sentinel declarations are
//     exactly the intended use and are allowed.
//
// Deliberate exceptions carry `//lint:ignore errwrapre <why>`.
package errwrapre

import (
	"go/ast"
	"strings"

	"rendelim/internal/analysis"
)

// Analyzer is the errwrapre rule set.
var Analyzer = &analysis.Analyzer{
	Name: "errwrapre",
	Doc:  "boundary errors must keep a %w-wrapped sentinel so status mapping cannot regress",
	Run:  run,
}

// boundaryPkgs are the packages whose returned errors cross the HTTP
// surface and reach statusForError.
var boundaryPkgs = map[string]bool{"jobs": true, "server": true, "cluster": true}

func run(pass *analysis.Pass) error {
	if !boundaryPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkCall(pass, call)
				return true
			})
		}
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name, ok := analysis.PkgFunc(pass.TypesInfo, call)
	if !ok {
		return
	}
	switch {
	case pkg == "errors" && name == "New":
		pass.Reportf(call.Pos(), "errors.New inside a boundary function: statusForError cannot classify a dynamic error — declare a package-level sentinel or wrap one with %%w")
	case pkg == "fmt" && name == "Errorf":
		checkErrorf(pass, call)
	}
}

func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	format, ok := analysis.ConstString(pass.TypesInfo, call.Args[0])
	if !ok {
		return
	}
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok {
			continue
		}
		if analysis.IsErrorType(tv.Type) {
			pass.Reportf(call.Pos(), "fmt.Errorf flattens an error with no %%w in the format: the sentinel chain is lost and httpError degrades to 500 — wrap with %%w (or keep a %%w sentinel first)")
			return
		}
	}
}
