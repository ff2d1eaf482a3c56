package docs

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/load"
)

// reachedOnlyByBench lists what, outside tests, only bench/'s main
// reaches. Like setOnlyByBench they wait on a benchmark-only change to
// go, and bench/ must still reach each.
var reachedOnlyByBench = []string{
	"core.Figure4",
	"core.Figures",
	"faultmodel.(*Process).AppendGaps",
	"simcache.Cache",
	"simcache.Key",
	"simcache.New",
	"simcache.Stats",
	"collectives.ScheduleCache",
	"loggopsim.Simulate",
	"rng.(*Source).Perm",
}

// reachedOnlyByTests lists what no main reaches, with the reason each
// is kept.
var reachedOnlyByTests = map[string]string{
	"netmodel.Params.EagerLatency": "the closed-form one-way latency the engine's message costs are tested against",
	"faultinject.Disarm":           "the cleanup a test registers after arming a plan",
	"trace.Barrier":                "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Reduce":                 "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Allgather":              "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Alltoall":               "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Gather":                 "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Scatter":                "a collective constructor; there is one per OpKind, as ReadText's grammar has",
}

// testSupport names the packages under internal/ that exist for tests:
// nothing in them is checked.
var testSupport = []string{"/internal/golden", "/internal/lint/analysistest"}

// dynamicMethods are the methods the standard library calls on a value
// it holds as an interface of any method set: fmt's verbs and
// encoding/json, and errors' walk down a chain.
var dynamicMethods = []string{"Error", "Unwrap", "String", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}

// decl is a declaration a walk can reach: a function or method, or a
// package-level type, var or const spec.
type decl struct {
	pkg  *load.Package
	node ast.Node
}

// reachSet is what a walk from some main packages reaches.
type reachSet struct {
	objs  map[types.Object]bool // every object named or called in reached code
	decls []decl                // every reached declaration, in walk order
}

// indexDecls records every declaration of the module by the objects it
// declares, and each package's init functions and package-level var
// specs, whose initializers run when a binary links the package.
func (c *census) indexDecls() {
	c.decls = map[types.Object]decl{}
	c.inits = map[*types.Package][]decl{}
	for _, p := range c.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						c.inits[p.Types] = append(c.inits[p.Types], decl{p, d})
					} else {
						c.decls[p.Info.Defs[d.Name]] = decl{p, d}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							c.decls[p.Info.Defs[s.Name]] = decl{p, s}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if obj := p.Info.Defs[name]; obj != nil {
									c.decls[obj] = decl{p, s}
								}
							}
							if d.Tok == token.VAR {
								c.inits[p.Types] = append(c.inits[p.Types], decl{p, s})
							}
						}
					}
				}
			}
		}
	}
}

// reach walks the module's non-test code from the main and init
// functions of mains and the package-level initializers of every
// package they import. It follows every reference out of each reached
// declaration. A method is also reached where reached code converts a
// value of its receiver type to an interface whose method set holds it,
// to an interface that reached code asserts (x.(I), a type switch case,
// errors.As into an I) and that the value implements, or to any
// interface if the standard library calls it (dynamicMethods).
func (c *census) reach(mains ...*load.Package) *reachSet {
	r := &reachSet{objs: map[types.Object]bool{}}
	var todo []decl
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if !r.objs[obj] {
			r.objs[obj] = true
			if d, ok := c.decls[obj]; ok {
				todo = append(todo, d)
			}
		}
	}
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if linked[p] {
			return
		}
		linked[p] = true
		for _, q := range p.Imports() {
			link(q)
		}
		todo = append(todo, c.inits[p]...)
	}
	for _, p := range mains {
		link(p.Types)
		mark(p.Types.Scope().Lookup("main"))
	}

	type conversion struct{ from, to types.Type }
	convs := map[string]conversion{}
	var asserted []*types.Interface
	walked := map[ast.Node]bool{}
	for len(todo) > 0 {
		for len(todo) > 0 {
			d := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			if walked[d.node] {
				continue
			}
			walked[d.node] = true
			r.decls = append(r.decls, d)
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := d.pkg.Info.Uses[id]; obj != nil {
						mark(obj)
					}
				}
				return true
			})
			conversions(d.pkg.Info, d.node, func(from, to types.Type) {
				if from != nil && to != nil && !types.IsInterface(from) && types.IsInterface(to) {
					convs[types.TypeString(from, nil)+"\x00"+types.TypeString(to, nil)] = conversion{from, to}
				}
			}, func(t types.Type) {
				if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					asserted = append(asserted, iface)
				}
			})
		}
		// Methods reached through the conversions seen so far; their
		// bodies may convert and assert more, so repeat until nothing
		// new is reached.
		for _, cv := range convs {
			called := slices.Clone(dynamicMethods)
			for _, iface := range append([]*types.Interface{cv.to.Underlying().(*types.Interface)}, asserted...) {
				if types.Implements(cv.from, iface) {
					for i := 0; i < iface.NumMethods(); i++ {
						called = append(called, iface.Method(i).Name())
					}
				}
			}
			mset := types.NewMethodSet(cv.from)
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj(); slices.Contains(called, m.Name()) {
					mark(m)
				}
			}
		}
	}
	return r
}

// objKey names an object as the lists above do: "pkg.Name",
// "pkg.Type.Method" for a value receiver, "pkg.(*Type).Method" for a
// pointer receiver.
func objKey(obj types.Object) string {
	prefix := obj.Pkg().Name() + "."
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return prefix + obj.Name()
	}
	if ptr, ok := sig.Recv().Type().(*types.Pointer); ok {
		return prefix + "(*" + ptr.Elem().(*types.Named).Obj().Name() + ")." + obj.Name()
	}
	return prefix + sig.Recv().Type().(*types.Named).Obj().Name() + "." + obj.Name()
}

// checkedObjects returns what the reach guard checks in the packages
// under internal/ but the test support: every function and method but
// init, exported or not, and every exported type, var and const.
func (c *census) checkedObjects() map[types.Object]string {
	out := map[types.Object]string{}
	for obj, d := range c.decls {
		if !checked(d.pkg.Path) {
			continue
		}
		if _, fn := d.node.(*ast.FuncDecl); fn || obj.Exported() {
			out[obj] = objKey(obj)
		}
	}
	return out
}

// checked reports whether the package at path is checked.
func checked(path string) bool {
	return strings.HasPrefix(path, module+"/internal/") && !isTestSupport(path)
}

func isTestSupport(path string) bool {
	for _, s := range testSupport {
		if path == module+s || strings.HasPrefix(path, module+s+"/") {
			return true
		}
	}
	return false
}

// conversions calls convert for every place in node where a value is
// implicitly or explicitly converted to another type (call arguments,
// conversions, assignments, declarations, returns, composite-literal
// elements, channel sends), and assert for every type a value is
// asserted to (x.(T), a type switch case, the target of errors.As).
func conversions(info *types.Info, node ast.Node, convert func(from, to types.Type), assert func(types.Type)) {
	var stack []ast.Node
	tuple := func(values []ast.Expr, to func(i int) types.Type) {
		if len(values) == 1 {
			if tup, ok := info.TypeOf(values[0]).(*types.Tuple); ok {
				for i := 0; i < tup.Len(); i++ {
					convert(tup.At(i).Type(), to(i))
				}
				return
			}
		}
		for i, v := range values {
			convert(info.TypeOf(v), to(i))
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				convert(info.TypeOf(n.Args[0]), tv.Type)
				return true
			}
			sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == "errors.As" {
					assert(info.TypeOf(n.Args[1]).(*types.Pointer).Elem())
				}
			}
			params := sig.Params()
			tuple(n.Args, func(i int) types.Type {
				if last := params.Len() - 1; sig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
					if s, ok := params.At(last).Type().Underlying().(*types.Slice); ok {
						return s.Elem()
					}
				} else if i < params.Len() {
					return params.At(i).Type()
				}
				return nil
			})
		case *ast.AssignStmt:
			tuple(n.Rhs, func(i int) types.Type { return info.TypeOf(n.Lhs[i]) })
		case *ast.ValueSpec:
			if n.Type != nil {
				to := info.TypeOf(n.Type)
				tuple(n.Values, func(int) types.Type { return to })
			}
		case *ast.ReturnStmt:
			for i := len(stack) - 2; i >= 0; i-- {
				var fn types.Type
				switch f := stack[i].(type) {
				case *ast.FuncDecl:
					fn = info.Defs[f.Name].Type()
				case *ast.FuncLit:
					fn = info.TypeOf(f)
				default:
					continue
				}
				results := fn.(*types.Signature).Results()
				tuple(n.Results, func(i int) types.Type { return results.At(i).Type() })
				break
			}
		case *ast.CompositeLit:
			lit := info.TypeOf(n)
			if ptr, ok := lit.Underlying().(*types.Pointer); ok {
				lit = ptr.Elem()
			}
			switch t := lit.Underlying().(type) {
			case *types.Struct:
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						convert(info.TypeOf(kv.Value), info.TypeOf(kv.Key))
					} else {
						convert(info.TypeOf(el), t.Field(i).Type())
					}
				}
			case interface{ Elem() types.Type }: // a slice, array or map
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if m, ok := t.(*types.Map); ok {
							convert(info.TypeOf(kv.Key), m.Key())
						}
						el = kv.Value
					}
					convert(info.TypeOf(el), t.Elem())
				}
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				assert(info.TypeOf(n.Type))
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if info.Types[e].IsType() {
					assert(info.TypeOf(e))
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				convert(info.TypeOf(n.Value), ch.Elem())
			}
		}
		return true
	})
}

// TestEveryExportIsReachedOutsideTests: every function and method,
// exported or not, and every exported type, var and const under
// internal/ is reached from the main of a command or an example, or is
// listed above with its reason. Code only tests reach is code that
// neither a command, the benchmark nor any golden runs: delete it, or
// move it into the test files that use it.
func TestEveryExportIsReachedOutsideTests(t *testing.T) {
	c, err := takeCensus()
	if err != nil {
		t.Fatal(err)
	}
	objs := c.checkedObjects()
	byKey := map[string]types.Object{}
	for obj, key := range objs {
		byKey[key] = obj
	}
	onlyBench := map[string]bool{}
	for _, key := range reachedOnlyByBench {
		onlyBench[key] = true
		obj, ok := byKey[key]
		switch {
		case !ok:
			t.Errorf("reachedOnlyByBench lists %s, which is not checked", key)
		case !c.withBench.objs[obj]:
			t.Errorf("reachedOnlyByBench lists %s, which bench/ no longer reaches", key)
		case c.fromMains.objs[obj]:
			t.Errorf("reachedOnlyByBench lists %s, which a main outside bench/ reaches too", key)
		}
	}
	for key := range reachedOnlyByTests {
		if obj, ok := byKey[key]; !ok {
			t.Errorf("reachedOnlyByTests lists %s, which is not checked", key)
		} else if c.withBench.objs[obj] {
			t.Errorf("reachedOnlyByTests lists %s, which a main reaches", key)
		}
	}
	var unreached []string
	for obj, key := range objs {
		switch {
		case onlyBench[key], reachedOnlyByTests[key] != "", c.fromMains.objs[obj]:
		case c.withBench.objs[obj]:
			t.Errorf("%s is reached outside tests only by bench/; add it to reachedOnlyByBench", key)
		default:
			unreached = append(unreached, key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s is reached only by tests: delete it, or move it into the tests that use it", key)
	}
}
