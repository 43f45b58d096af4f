// Command relint runs the repo's custom static-analysis suite: the five
// analyzers that turn the determinism, hot-path, durability, error-mapping
// and metric-naming invariants into compile-time checks.
//
// Usage:
//
//	go run ./cmd/relint ./...
//	go run ./cmd/relint -checks nodeterm,fsyncorder ./internal/...
//
// CI runs the first form. Diagnostics print as file:line:col: message
// (analyzer); the exit status is 1 when anything is flagged. Suppress a
// deliberate exception with a justified directive on (or directly above)
// the flagged line:
//
//	//lint:ignore fsyncorder quarantine moves already-damaged bytes aside
//
// relint analyzes non-test Go files: the invariants it enforces are about
// production code (signature determinism, hot-path allocation, fsync
// ordering), and tests legitimately use wall clocks and allocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rendelim/internal/analysis"
	"rendelim/internal/analysis/errwrapre"
	"rendelim/internal/analysis/fsyncorder"
	"rendelim/internal/analysis/hotpathalloc"
	"rendelim/internal/analysis/metricconv"
	"rendelim/internal/analysis/nodeterm"
)

// suite is every analyzer relint runs, in reporting order.
var suite = []*analysis.Analyzer{
	nodeterm.Analyzer,
	hotpathalloc.Analyzer,
	fsyncorder.Analyzer,
	errwrapre.Analyzer,
	metricconv.Analyzer,
}

func main() { os.Exit(run()) }

func run() int {
	checks := flag.String("checks", "", "comma-separated analyzer subset to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: relint [-checks a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectChecks(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relint:", err)
		return 2
	}
	bad := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "relint:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Println(d)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "relint: %d finding(s)\n", bad)
		return 1
	}
	return 0
}

func selectChecks(csv string) ([]*analysis.Analyzer, error) {
	if csv == "" {
		return suite, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(csv, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
