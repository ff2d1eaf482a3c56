package load_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint/load"
)

// writeTree lays out a throwaway module.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestPatternsWalkSkipsTestdataAndTestFiles(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                    "module tmpmod\n\ngo 1.22\n",
		"a/a.go":                    "package a\n\nfunc A() int { return 1 }\n",
		"a/a_test.go":               "package a\n\nthis would not even parse",
		"a/testdata/src/fix/fix.go": "package fix\n\nalso broken on purpose",
		"b/b.go":                    "package b\n\nimport \"tmpmod/a\"\n\nfunc B() int { return a.A() }\n",
		"docsonly/README.md":        "no go files here",
	})
	l, err := load.Module(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Patterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"tmpmod/a", "tmpmod/b"}
	if len(paths) != len(want) || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
}

func TestCrossPackageTypeResolution(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"errors\"\n\nvar ErrX = errors.New(\"x\")\n",
		"b/b.go": "package b\n\nimport \"tmpmod/a\"\n\nfunc Match(err error) bool { return err == a.ErrX }\n",
	})
	l, err := load.Module(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Types == nil {
		t.Fatal("package b not loaded")
	}
	// The imported sentinel must resolve to a real object so analyzers
	// can inspect it.
	found := false
	for id, obj := range p.Info.Uses {
		if id.Name == "ErrX" && obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "tmpmod/a" {
			found = true
		}
	}
	if !found {
		t.Fatal("cross-package sentinel did not resolve")
	}
}

func TestTypeErrorSurfaces(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc A() int { return \"not an int\" }\n",
	})
	l, err := load.Module(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Patterns([]string{"./..."}); err == nil {
		t.Fatal("type error silently swallowed")
	}
}

func TestModuleRootDiscoveryFromSubdir(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": "package a\n",
	})
	l, err := load.Module(filepath.Join(root, "a"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Patterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tmpmod/a" || pkgs[0].Dir != filepath.Join(root, "a") {
		t.Fatalf("./... from the root found by a/ = %+v, want only tmpmod/a in %s", pkgs, root)
	}
}
