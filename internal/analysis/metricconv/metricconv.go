// Package metricconv enforces the Prometheus naming conventions of the
// /v1/metrics surface, so restat and the strict promtext parser keep
// working against every node.
//
// Every family is written through one encoder, promtext.Writer, so the
// analyzer checks the arguments of its methods: Counter, Gauge, Family and
// Histogram. The conventions that keep the surface coherent and
// PromQL-friendly:
//
//   - every metric is named resvc_* with [a-z0-9_] words (no camelCase, no
//     double underscores, nothing trailing), given as a constant
//   - counters end in _total (rate() semantics)
//   - gauges do not end in _total
//   - histograms end in a unit suffix: _seconds (latencies) or _ratio
//     (the per-frame elimination distribution)
//   - label keys are a []string literal drawn from the fixed vocabulary
//     restat knows how to aggregate: benchmark, stage, class, peer, route,
//     status, le
//
// Node state is published there and nowhere else: expvar.Publish of a
// resvc_* name is reported too. Deliberate exceptions carry
// `//lint:ignore metricconv <why>`.
package metricconv

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"rendelim/internal/analysis"
)

// Analyzer is the metricconv rule set.
var Analyzer = &analysis.Analyzer{
	Name: "metricconv",
	Doc:  "Prometheus metric names, suffixes and labels must follow the resvc_* conventions",
	Run:  run,
}

// allowedLabels is the label vocabulary restat aggregates over.
var allowedLabels = map[string]bool{
	"benchmark": true, "stage": true, "class": true,
	"peer": true, "route": true, "status": true, "le": true,
}

var nameRE = regexp.MustCompile(`^resvc_[a-z0-9]+(_[a-z0-9]+)*$`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if pkg, fn, ok := analysis.PkgFunc(pass.TypesInfo, call); ok && pkg == "expvar" && fn == "Publish" && len(call.Args) >= 1 {
		if name, ok := analysis.ConstString(pass.TypesInfo, call.Args[0]); ok && strings.HasPrefix(name, "resvc_") {
			pass.Reportf(call.Args[0].Pos(), "expvar %q publishes node state outside /v1/metrics; write it through promtext.Writer", name)
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isWriterMethod(pass.TypesInfo, sel) {
		return
	}
	args := call.Args
	switch sel.Sel.Name {
	case "Counter":
		checkName(pass, args[0], "counter")
	case "Gauge":
		checkName(pass, args[0], "gauge")
	case "Family": // Family(typ, name, help, keys, series)
		typ, ok := analysis.ConstString(pass.TypesInfo, args[0])
		switch {
		case !ok:
			pass.Reportf(args[0].Pos(), "family type must be a constant")
		case typ == "histogram":
			pass.Reportf(args[0].Pos(), "Family writes counters and gauges; write histograms with Histogram")
		default:
			checkName(pass, args[1], typ)
		}
		checkKeys(pass, args[3])
	case "Histogram": // Histogram(name, help, keys, series...)
		checkName(pass, args[0], "histogram")
		checkKeys(pass, args[2])
	}
}

// isWriterMethod reports whether sel selects a method of promtext.Writer.
func isWriterMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Writer" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "/promtext")
}

// checkKeys validates a label-key argument: nil, or a []string literal of
// constant keys from the vocabulary.
func checkKeys(pass *analysis.Pass, arg ast.Expr) {
	if id, ok := arg.(*ast.Ident); ok && id.Name == "nil" {
		return
	}
	lit, ok := arg.(*ast.CompositeLit)
	if !ok {
		pass.Reportf(arg.Pos(), "label keys must be a []string literal so they can be checked")
		return
	}
	for _, el := range lit.Elts {
		key, ok := analysis.ConstString(pass.TypesInfo, el)
		if !ok {
			pass.Reportf(el.Pos(), "label key must be a constant")
			continue
		}
		if !allowedLabels[key] {
			pass.Reportf(el.Pos(), "label %q is outside the restat vocabulary (benchmark, stage, class, peer, route, status, le)", key)
		}
	}
}

func checkName(pass *analysis.Pass, arg ast.Expr, kind string) {
	pos := arg.Pos()
	name, ok := analysis.ConstString(pass.TypesInfo, arg)
	if !ok {
		pass.Reportf(pos, "metric name must be a constant")
		return
	}
	if !nameRE.MatchString(name) {
		pass.Reportf(pos, "metric name %q does not match resvc_[a-z0-9_]+ (lowercase words, single underscores)", name)
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter %q must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "gauge %q must not end in _total (reserved for counters)", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_ratio") {
			pass.Reportf(pos, "histogram %q must carry a unit suffix (_seconds or _ratio)", name)
		}
	default:
		pass.Reportf(pos, "metric %q declared %s: the resvc surface only emits counters, gauges and histograms", name, kind)
	}
}
