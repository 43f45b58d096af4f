package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("rendelim/internal/gpusim")
	Name  string // package name ("gpusim")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives []directive
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs the go command and decodes its JSON package stream.
func goList(args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load resolves patterns (e.g. "./...") with the go tool and returns every
// matched non-test package parsed and type-checked. Dependencies — the
// standard library included — are imported from compiler export data
// produced by a single `go list -export -deps` call, so only the target
// packages themselves are type-checked from source.
func Load(patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,Error"}, patterns...)
	listed, err := goList(args...)
	if err != nil {
		return nil, err
	}
	// -deps emits dependencies too; the requested targets are exactly the
	// patterns' matches, which `go list` (without -deps) re-resolves cheaply.
	targets := map[string]bool{}
	{
		cmd := exec.Command("go", append([]string{"list"}, patterns...)...)
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if line != "" {
				targets[line] = true
			}
		}
	}

	exports := map[string]string{}
	byPath := map[string]listedPkg{}
	for _, p := range listed {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)

	var out []*Package
	for _, p := range listed {
		if !targets[p.ImportPath] {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, absFiles(p.Dir, p.GoFiles))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir parses and type-checks a standalone directory of Go files (an
// analysistest testdata package). Imports are restricted to what a
// `go list -export -deps` of the files' import paths can resolve — in
// practice the standard library.
func LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}

	fset := token.NewFileSet()
	var parsed []*ast.File
	importSet := map[string]bool{}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
		for _, spec := range af.Imports {
			importSet[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		args := []string{"list", "-export", "-deps", "-json=ImportPath,Export"}
		for p := range importSet {
			args = append(args, p)
		}
		listed, err := goList(args...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := exportImporter(fset, exports)
	return checkParsed(fset, imp, "testdata/"+filepath.Base(dir), dir, parsed)
}

// exportImporter builds a types.Importer that reads compiler export data
// from the files `go list -export` reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	return checkParsed(fset, imp, path, dir, parsed)
}

func checkParsed(fset *token.FileSet, imp types.Importer, path, dir string, parsed []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{
		Path:       path,
		Name:       tpkg.Name(),
		Dir:        dir,
		Fset:       fset,
		Files:      parsed,
		Types:      tpkg,
		Info:       info,
		directives: parseDirectives(fset, parsed),
	}, nil
}
