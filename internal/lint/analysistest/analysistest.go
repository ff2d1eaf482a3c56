// Package analysistest runs a ceslint analyzer over golden fixture
// packages, mirroring golang.org/x/tools/go/analysis/analysistest:
// fixture files annotate the lines where diagnostics are expected with
//
//	code() // want "regexp" "another regexp"
//
// and the harness fails the test on any missing or unexpected
// diagnostic. Fixtures are type-checked against the standard library
// only, with the directory base name as the package import path — so a
// fixture directory named "det" can be registered in an analyzer's
// scope map to exercise scope-dependent rules. Diagnostics pass
// through the real runner.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
	"repro/internal/lint/runner"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// Run checks analyzer a against the fixture package in dir (e.g.
// "testdata/src/det"). The fixture's import path is filepath.Base(dir).
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	pkg := loadFixture(t, fset, dir)
	diags, err := runner.Run(fset, []*load.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	compare(t, fset, pkg, diags)
}

func loadFixture(t *testing.T, fset *token.FileSet, dir string) *load.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	path := filepath.Base(dir)
	info := load.NewInfo()
	conf := types.Config{Importer: importer.Default()}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", path, err)
	}
	return &load.Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

func compare(t *testing.T, fset *token.FileSet, pkg *load.Package, diags []runner.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}

	unmatched := append([]runner.Diagnostic(nil), diags...)
	for _, w := range wants {
		idx := -1
		for i, d := range unmatched {
			if d.Position.Filename == w.file && d.Position.Line == w.line && w.re.MatchString(d.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
			continue
		}
		unmatched = append(unmatched[:idx], unmatched[idx+1:]...)
	}
	sort.Slice(unmatched, func(i, j int) bool { return unmatched[i].Position.Line < unmatched[j].Position.Line })
	for _, d := range unmatched {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
