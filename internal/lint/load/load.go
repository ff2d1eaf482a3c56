// Package load type-checks the repository's packages from source using
// only the standard library. The sandboxed build has no module proxy,
// so golang.org/x/tools/go/packages is unavailable; instead this
// loader resolves imports itself: standard-library packages come from
// the gc importer's export data (go/importer), and module-internal
// packages ("repro/...") are parsed and type-checked recursively from
// their directories under the module root.
//
// Only non-test files are loaded: ceslint's invariants target
// production code, and keeping test files out of the type-check unit
// keeps the loader to one package per directory.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/jobs").
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Files are the parsed non-test sources, comments included.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds object and type resolution for Files.
	Info *types.Info
}

// Loader loads and caches packages for one module.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*entry
}

type entry struct {
	pkg     *Package
	err     error
	loading bool
}

// Module creates a loader for the Go module rooted at or above dir.
func Module(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		moduleRoot: root,
		modulePath: modPath,
		std:        importer.Default(),
		pkgs:       map[string]*entry{},
	}, nil
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("load: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("load: no module directive in %s", gomod)
}

// Patterns resolves command-line package patterns to loaded packages.
// Supported forms: "./..." (or "all") for the whole module, "dir/..."
// for a subtree, and plain directory paths, all relative to the module
// root or absolute.
func (l *Loader) Patterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var pkgs []*Package
	add := func(ps []*Package) {
		for _, p := range ps {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "all" || pat == "./..." || pat == "...":
			ps, err := l.loadTree(l.moduleRoot)
			if err != nil {
				return nil, err
			}
			add(ps)
		case strings.HasSuffix(pat, "/..."):
			dir := l.resolveDir(strings.TrimSuffix(pat, "/..."))
			ps, err := l.loadTree(dir)
			if err != nil {
				return nil, err
			}
			add(ps)
		default:
			p, err := l.LoadDir(l.resolveDir(pat))
			if err != nil {
				return nil, err
			}
			if p != nil {
				add([]*Package{p})
			}
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) resolveDir(pat string) string {
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(l.moduleRoot, pat)
}

// loadTree loads every buildable package under dir, skipping testdata,
// hidden directories and vendor-ish clutter.
func (l *Loader) loadTree(dir string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		p, err := l.LoadDir(path)
		if err != nil {
			return err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
		return nil
	})
	return pkgs, err
}

// LoadDir loads the package in dir, or (nil, nil) if the directory has
// no buildable non-test Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	p, err := l.load(path)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil, nil
		}
		return nil, err
	}
	return p, nil
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.moduleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("load: %s is outside module %s", dir, l.moduleRoot)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module import path back to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.modulePath {
		return l.moduleRoot
	}
	rel := strings.TrimPrefix(path, l.modulePath+"/")
	return filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
}

// load parses and type-checks the module package with the given import
// path, memoizing the result.
func (l *Loader) load(path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("load: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &entry{loading: true}
	l.pkgs[path] = e
	pkg, err := l.loadUncached(path)
	e.pkg, e.err, e.loading = pkg, err, false
	return pkg, err
}

func (l *Loader) loadUncached(path string) (*Package, error) {
	dir := l.dirFor(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err // may be *build.NoGoError; callers inspect
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: &moduleImporter{l}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// NewInfo allocates a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// moduleImporter resolves module-internal imports from source and
// defers everything else to the standard gc importer.
type moduleImporter struct{ l *Loader }

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	switch {
	case path == "unsafe":
		return types.Unsafe, nil
	case path == m.l.modulePath || strings.HasPrefix(path, m.l.modulePath+"/"):
		p, err := m.l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	default:
		return m.l.std.Import(path)
	}
}
