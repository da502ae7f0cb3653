package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Loader parses and typechecks this module's packages from source,
// with no go/packages and no network: module-local imports resolve
// recursively through the loader itself, standard-library imports
// through the source importer (which reads $GOROOT/src — the
// toolchain ships it). cmd/piql-vet and the linttest fixtures both
// load through it.
type Loader struct {
	fset *token.FileSet
	// ModuleRoot is the directory containing go.mod; ModulePath the
	// declared module path ("piql").
	ModuleRoot string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*LoadedPackage
	loading map[string]bool
	// order records completion order: every package appears after all
	// of its module-local dependencies.
	order []string
}

// LoadedPackage is one typechecked package ready for RunUnit.
type LoadedPackage struct {
	Unit *Unit
	Dir  string
}

// NewLoader finds the enclosing module of start (a file or directory)
// and returns a loader rooted there.
func NewLoader(start string) (*Loader, error) {
	abs, err := filepath.Abs(start)
	if err != nil {
		return nil, err
	}
	dir := abs
	if fi, err := os.Stat(abs); err == nil && !fi.IsDir() {
		dir = filepath.Dir(abs)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("lint: no go.mod found above %s", start)
		}
		dir = parent
	}
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: %s/go.mod has no module directive", dir)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		ModuleRoot: dir,
		ModulePath: string(m[1]),
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*LoadedPackage{},
		loading:    map[string]bool{},
	}, nil
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer over both halves of the world.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		lp, err := l.loadImportPath(path)
		if err != nil {
			return nil, err
		}
		return lp.Unit.Pkg, nil
	}
	return l.std.Import(path)
}

// dirOf returns the directory of a module-local import path.
func (l *Loader) dirOf(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleRoot, nil
	}
	rel, ok := strings.CutPrefix(path, l.ModulePath+"/")
	if !ok {
		return "", fmt.Errorf("lint: %s is outside module %s", path, l.ModulePath)
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), nil
}

// loadImportPath loads a module-local package by import path.
func (l *Loader) loadImportPath(path string) (*LoadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	dir, err := l.dirOf(path)
	if err != nil {
		return nil, err
	}
	return l.LoadDir(dir, path)
}

// ParsePackage parses, without typechecking, the non-test .go files of
// a module-local package — all the escape-budget gate needs.
func (l *Loader) ParsePackage(path string) ([]*ast.File, error) {
	dir, err := l.dirOf(path)
	if err != nil {
		return nil, err
	}
	return l.parseDir(dir)
}

// parseDir parses the non-test .go files of dir, comments included.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	return files, nil
}

// LoadDir parses and typechecks the non-test .go files of one
// directory under the given import path (which may be synthetic, as
// for test fixtures). Results are memoized by import path.
func (l *Loader) LoadDir(dir, path string) (*LoadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	lp := &LoadedPackage{
		Unit: &Unit{
			Fset:       l.fset,
			Files:      files,
			ImportPath: path,
			Pkg:        pkg,
			Info:       info,
		},
		Dir: dir,
	}
	l.pkgs[path] = lp
	l.order = append(l.order, path)
	return lp, nil
}

// LoadAll loads every package in the module and returns them in
// dependency order: each package after all module-local packages it
// imports.
func (l *Loader) LoadAll() ([]*LoadedPackage, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != l.ModuleRoot && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		entries, rdErr := os.ReadDir(p)
		if rdErr != nil {
			return rdErr
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		if _, err := l.loadImportPath(path); err != nil {
			return nil, err
		}
	}
	out := make([]*LoadedPackage, 0, len(l.order))
	for _, path := range l.order {
		out = append(out, l.pkgs[path])
	}
	return out, nil
}
