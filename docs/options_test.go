// Package docs holds the tests that keep this directory's documents in
// step with the code: OPTIONS.md is the committed census of every
// setting, SERVICE.md's flag table must name exactly cesimd's flags and
// its Metrics section every section of /metrics, and FAULTS.md's Sites
// table every fault-injection site. Beside them, two guards hold the
// code to what runs: every setting is set, and every export reached,
// by code other than tests.
package docs

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/lint/load"
	"repro/internal/server"
)

// module is the module path, as this directory's imports spell it.
const module = "repro"

// configSuffixes name the settable struct families: every exported
// struct type whose name ends in one of them is counted, field by
// field, without editing this list.
var configSuffixes = []string{"Config", "Options", "Limits", "Spec", "Inputs", "Policy", "Params"}

// registrar locates a flag's name and default among the arguments of a
// registering function of package flag (def -1: it has none) and says
// what type the census prints ("" takes the value argument's type).
type registrar struct {
	name, def int
	kind      string
}

var registrars = func() map[string]registrar {
	m := map[string]registrar{
		"Func":     {0, -1, "func"},
		"BoolFunc": {0, -1, "boolfunc"},
		"TextVar":  {1, 2, ""},
		"Var":      {1, -1, ""},
	}
	for _, kind := range []string{"bool", "int", "int64", "uint", "uint64", "string", "float64", "duration"} {
		fn := strings.ToUpper(kind[:1]) + kind[1:]
		m[fn] = registrar{0, 1, kind}
		m[fn+"Var"] = registrar{1, 2, kind}
	}
	return m
}()

// option is one census row: a flag (name, type, default), a struct
// field (name, type) or a map variable (name, type, its keys).
type option struct{ name, typ, value string }

type census struct {
	flags  map[string][]option // by command, cmd/<name>
	fields map[string][]option // by struct type, "jobs.Config"
	maps   []option

	pkgs []*load.Package          // the module's packages, non-test files only
	vars map[*types.Var]*fieldRow // every exported field of an exported struct by its object
}

// fieldRow is a struct field as TestEverySettingIsSetOutsideTests
// reads it.
type fieldRow struct {
	key    string // "jobs.Config.Retain"
	tagged bool   // it has a json tag
	census bool   // its type is a census type (configSuffixes)
}

// takeCensus type-checks the module once for every test that reads it.
var takeCensus = sync.OnceValues(func() (*census, error) {
	l, err := load.Module(".")
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Patterns([]string{"./..."})
	if err != nil {
		return nil, err
	}
	c := &census{flags: map[string][]option{}, fields: map[string][]option{},
		pkgs: pkgs, vars: map[*types.Var]*fieldRow{}}
	cmdPrefix := module + "/cmd/"

	// Every function body of the module by its object, so a command's
	// flags include those registered in the functions it reaches
	// (core's BindFlags methods). A body outside cmd/ that registers a
	// flag must be reached by some command, or its flags go uncounted.
	type body struct {
		pkg  *load.Package
		node ast.Node
	}
	funcs := map[*types.Func]body{}
	binders := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				funcs[fn] = body{p, fd.Body}
				if p.Types.Name() != "main" && len(registrations(p, fd.Body)) > 0 {
					binders[fn] = true
				}
			}
		}
	}
	for _, p := range pkgs {
		cmd, ok := strings.CutPrefix(p.Path, cmdPrefix)
		if !ok {
			continue
		}
		reached := map[*types.Func]bool{}
		var todo []body
		for _, f := range p.Files {
			todo = append(todo, body{p, f})
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					reached[p.Info.Defs[fd.Name].(*types.Func)] = true
				}
			}
		}
		byName := map[string]option{}
		for len(todo) > 0 {
			b := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for _, o := range registrations(b.pkg, b.node) {
				if _, dup := byName[o.name]; dup {
					return nil, fmt.Errorf("%s: flag %s registered twice", cmd, o.name)
				}
				byName[o.name] = o
			}
			ast.Inspect(b.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := b.pkg.Info.Uses[id].(*types.Func); ok {
						fn = fn.Origin()
						if next, ok := funcs[fn]; ok && !reached[fn] {
							reached[fn] = true
							delete(binders, fn)
							todo = append(todo, next)
						}
					}
				}
				return true
			})
		}
		for _, o := range byName {
			c.flags[cmd] = append(c.flags[cmd], o)
		}
		sortOptions(c.flags[cmd])
	}
	for fn := range binders {
		return nil, fmt.Errorf("%s registers flags that no command reaches", fn.FullName())
	}

	lintPrefix := module + "/internal/lint/"
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		qual := func(q *types.Package) string {
			if q == p.Types {
				return ""
			}
			return q.Name()
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || !obj.Exported() || obj.IsAlias() {
					continue
				}
				census := hasConfigSuffix(name)
				var fields []option
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						if census {
							fields = append(fields, option{name: f.Name(), typ: types.TypeString(f.Type(), qual)})
						}
						_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
						c.vars[f] = &fieldRow{key: p.Types.Name() + "." + name + "." + f.Name(), tagged: tagged, census: census}
					}
				}
				if census {
					c.fields[p.Types.Name()+"."+name] = fields
				}
			case *types.Var:
				if _, ok := obj.Type().Underlying().(*types.Map); ok && obj.Exported() && strings.HasPrefix(p.Path, lintPrefix) {
					c.maps = append(c.maps, option{
						name:  p.Types.Name() + "." + name,
						typ:   types.TypeString(obj.Type(), qual),
						value: mapKeys(p, obj),
					})
				}
			}
		}
	}
	sortOptions(c.maps)
	return c, nil
})

// registrations returns the flags registered by calls to package flag
// anywhere in node.
func registrations(p *load.Package, node ast.Node) []option {
	var out []option
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			id = fun.Sel
		case *ast.Ident:
			id = fun
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
			return true
		}
		r, ok := registrars[fn.Name()]
		if !ok {
			return true
		}
		o := option{name: "-" + constantText(p, call.Args[r.name]), typ: r.kind, value: "—"}
		if o.typ == "" {
			t := p.Info.TypeOf(call.Args[0])
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			o.typ = types.TypeString(t, func(q *types.Package) string { return q.Name() })
		}
		if r.def >= 0 {
			o.value = defaultText(p, call.Args[r.def], r.kind)
		}
		out = append(out, o)
		return true
	})
	return out
}

// constantText is a constant string argument's value, or its source
// when it is not constant.
func constantText(p *load.Package, e ast.Expr) string {
	if v := p.Info.Types[e].Value; v != nil && v.Kind() == constant.String {
		return constant.StringVal(v)
	}
	return types.ExprString(e)
}

// defaultText prints a flag default as -h would for a constant of a
// basic kind, and as its source expression otherwise.
func defaultText(p *load.Package, e ast.Expr, kind string) string {
	v := p.Info.Types[e].Value
	switch {
	case v == nil || kind == "":
		return "`" + types.ExprString(e) + "`"
	case kind == "duration":
		n, _ := constant.Int64Val(v)
		return "`" + time.Duration(n).String() + "`"
	case kind == "string":
		return "`" + strconv.Quote(constant.StringVal(v)) + "`"
	default:
		return "`" + v.String() + "`"
	}
}

// mapKeys lists the constant keys of a map variable's literal
// initializer.
func mapKeys(p *load.Package, obj *types.Var) string {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if p.Info.Defs[name] != obj || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						return "`" + types.ExprString(vs.Values[i]) + "`"
					}
					var keys []string
					for _, el := range lit.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							keys = append(keys, "`"+constantText(p, kv.Key)+"`")
						}
					}
					sort.Strings(keys)
					return fmt.Sprintf("%d: %s", len(keys), strings.Join(keys, ", "))
				}
			}
		}
	}
	return "—"
}

func hasConfigSuffix(name string) bool {
	for _, s := range configSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

func sortOptions(opts []option) {
	sort.Slice(opts, func(i, j int) bool { return opts[i].name < opts[j].name })
}

func sortedKeys(m map[string][]option) (keys []string, total int) {
	for k, v := range m {
		keys = append(keys, k)
		total += len(v)
	}
	sort.Strings(keys)
	return keys, total
}

// render writes the census as docs/OPTIONS.md. Every count follows
// the rows it counts, so an option added or removed is the first line
// that moves, and golden.Check names it.
func (c *census) render() []byte {
	var b strings.Builder
	cmds, nflags := sortedKeys(c.flags)
	structs, nfields := sortedKeys(c.fields)
	fmt.Fprintf(&b, "# Settable options\n\n")
	fmt.Fprintf(&b, "The census of every setting. `TestOptionsGolden` (docs/options_test.go)\n")
	fmt.Fprintf(&b, "writes it from the type-checked module through `internal/golden`; a\n")
	fmt.Fprintf(&b, "change that adds or removes an option moves this file, and its diff is\n")
	fmt.Fprintf(&b, "the count CHANGES.md cites.\n")

	fmt.Fprintf(&b, "\n## Flags\n\nEvery flag of every `cmd/*`. Flags registered in a function a command\n")
	fmt.Fprintf(&b, "calls (core's `BindFlags`) count toward that command.\n")
	for _, cmd := range cmds {
		fmt.Fprintf(&b, "\n### %s\n\n| Flag | Type | Default |\n| --- | --- | --- |\n", cmd)
		for _, o := range c.flags[cmd] {
			fmt.Fprintf(&b, "| `%s` | %s | %s |\n", o.name, o.typ, o.value)
		}
		fmt.Fprintf(&b, "\n%s: %d flags.\n", cmd, len(c.flags[cmd]))
	}
	fmt.Fprintf(&b, "\n%d flags in %d commands.\n", nflags, len(cmds))

	fmt.Fprintf(&b, "\n## Config fields\n\nEvery exported field of every exported struct type whose name ends in\n`%s`.\n", strings.Join(configSuffixes, "`, `"))
	for _, typ := range structs {
		fmt.Fprintf(&b, "\n### %s\n\n| Field | Type |\n| --- | --- |\n", typ)
		for _, o := range c.fields[typ] {
			fmt.Fprintf(&b, "| `%s` | `%s` |\n", o.name, o.typ)
		}
		fmt.Fprintf(&b, "\n%s: %d fields.\n", typ, len(c.fields[typ]))
	}
	fmt.Fprintf(&b, "\n%d fields in %d types.\n", nfields, len(structs))

	fmt.Fprintf(&b, "\n## ceslint maps\n\nThe exported map variables of `internal/lint`'s analyzers.\n\n")
	fmt.Fprintf(&b, "| Variable | Type | Keys |\n| --- | --- | --- |\n")
	for _, o := range c.maps {
		fmt.Fprintf(&b, "| `%s` | `%s` | %s |\n", o.name, o.typ, o.value)
	}
	fmt.Fprintf(&b, "\n%d maps.\n", len(c.maps))
	return []byte(b.String())
}

// TestOptionsGolden: docs/OPTIONS.md is the census as the code stands,
// so a flag, config field or ceslint map added or removed anywhere
// fails here until the golden is rewritten with -update.
func TestOptionsGolden(t *testing.T) {
	c, err := takeCensus()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "OPTIONS.md", c.render())
}

// flagRow is a row of SERVICE.md's flag table.
var flagRow = regexp.MustCompile("^\\| `(-[a-z0-9-]+)` \\|")

// TestServiceFlagTableMatchesCensus: SERVICE.md's flag table names
// exactly the flags cesimd registers.
func TestServiceFlagTableMatchesCensus(t *testing.T) {
	c, err := takeCensus()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		if m := flagRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	for _, o := range c.flags["cesimd"] {
		if !documented[o.name] {
			t.Errorf("SERVICE.md's flag table lacks cesimd's %s", o.name)
		}
		delete(documented, o.name)
	}
	for name := range documented {
		t.Errorf("SERVICE.md's flag table lists %s, which cesimd does not register", name)
	}
}

// TestServiceMetricsSectionNamesEverySection: SERVICE.md's Metrics
// section names, in backquotes, every top-level key of the /metrics
// document.
func TestServiceMetricsSectionNamesEverySection(t *testing.T) {
	text, err := os.ReadFile("SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n## Metrics\n")
	if !ok {
		t.Fatal("SERVICE.md has no Metrics section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	snap := reflect.TypeOf(server.Snapshot{})
	for i := 0; i < snap.NumField(); i++ {
		key, _, _ := strings.Cut(snap.Field(i).Tag.Get("json"), ",")
		if !strings.Contains(section, "`"+key+"`") {
			t.Errorf("SERVICE.md's Metrics section does not name /metrics' %q", key)
		}
	}
}
