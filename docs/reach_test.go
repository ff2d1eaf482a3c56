package docs

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachedOnlyByBench lists the exports that, outside tests, only bench/
// references. Like setOnlyByBench they wait on a benchmark-only change
// to go, and each must still be referenced by bench/.
var reachedOnlyByBench = []string{
	"core.Figure4",
	"core.Figures",
	"faultmodel.(*Process).AppendGaps",
	"simcache.Key",
	"simcache.New",
	"simcache.Stats",
	"collectives.ScheduleCache",
	"loggopsim.Simulate",
	"rng.(*Source).Perm",
}

// reachedOnlyByTests lists the exports only tests reference, with the
// reason each is kept.
var reachedOnlyByTests = map[string]string{
	"due.Simulate":             "the Monte Carlo reference the closed-form DUE model is tested against",
	"netmodel.Params.PingPong": "a closed-form oracle the engine's message costs are tested against",
	"faultinject.Disarm":       "the cleanup a test registers after arming a plan",
	"trace.Barrier":            "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Reduce":             "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Allgather":          "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Alltoall":           "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Gather":             "a collective constructor; there is one per OpKind, as ReadText's grammar has",
	"trace.Scatter":            "a collective constructor; there is one per OpKind, as ReadText's grammar has",
}

// testSupport names the packages under internal/ that exist for tests:
// their exports are not checked, and their references do not count.
var testSupport = []string{"/internal/golden", "/internal/lint/analysistest"}

// dynamicMethods are the methods the standard library calls on a value
// it holds as an interface of any method set: fmt's verbs and
// encoding/json, and errors' walk down a chain.
var dynamicMethods = []string{"Error", "Unwrap", "String", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}

// exportKey names an exported object as the lists above do: "pkg.Name",
// "pkg.Type.Method" for a value receiver, "pkg.(*Type).Method" for a
// pointer receiver.
func exportKey(obj types.Object) string {
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

// exports returns every exported func, method, type, var and const of
// the checked packages: those under internal/ but the test support.
func (c *census) exports() map[types.Object]string {
	out := map[types.Object]string{}
	for _, p := range c.pkgs {
		if !checked(p.Path) {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[obj] = exportKey(obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out[m] = exportKey(m)
				}
			}
		}
	}
	return out
}

// checked reports whether the package at path has its exports checked.
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

// referrers maps each object the module's non-test code reaches to the
// import paths of the packages that reach it. An object is reached
// where an identifier names it. A method is also reached where a value
// of its receiver type is converted to an interface whose method set
// holds it, to an interface that some code asserts (x.(I), a type
// switch case, errors.As into an I) and that the value implements, or
// to any interface if the standard library calls it (dynamicMethods).
func (c *census) referrers() map[types.Object]map[string]bool {
	out := map[types.Object]map[string]bool{}
	reach := func(obj types.Object, path string) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if out[obj] == nil {
			out[obj] = map[string]bool{}
		}
		out[obj][path] = true
	}
	type conversion struct {
		from, to types.Type
		path     string
	}
	var convs []conversion
	var asserted []*types.Interface
	for _, p := range c.pkgs {
		if isTestSupport(p.Path) {
			continue
		}
		for _, obj := range p.Info.Uses {
			reach(obj, p.Path)
		}
		for _, f := range p.Files {
			conversions(p.Info, f, func(from, to types.Type) {
				if from != nil && to != nil && !types.IsInterface(from) && types.IsInterface(to) {
					convs = append(convs, conversion{from, to, p.Path})
				}
			}, func(t types.Type) {
				if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					asserted = append(asserted, iface)
				}
			})
		}
	}
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
				reach(m, cv.path)
			}
		}
	}
	return out
}

// conversions calls convert for every place in f where a value is
// implicitly or explicitly converted to another type (call arguments,
// conversions, assignments, declarations, returns, composite-literal
// elements, channel sends), and assert for every type a value is
// asserted to (x.(T), a type switch case, the target of errors.As).
func conversions(info *types.Info, f *ast.File, convert func(from, to types.Type), assert func(types.Type)) {
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
	ast.Inspect(f, func(n ast.Node) bool {
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

// TestEveryExportIsReachedOutsideTests: every exported func, method,
// type, var and const under internal/ is reached by non-test code of
// the module (its own package counts), or is listed above with its
// reason. An export only tests reach is API that neither a command,
// the benchmark nor any golden runs: delete it, and test the entry
// point production code calls instead.
func TestEveryExportIsReachedOutsideTests(t *testing.T) {
	c, err := takeCensus()
	if err != nil {
		t.Fatal(err)
	}
	exports := c.exports()
	reached := c.referrers()
	bench := module + "/bench"
	byKey := map[string]types.Object{}
	for obj, key := range exports {
		byKey[key] = obj
	}
	onlyBench := map[string]bool{}
	for _, key := range reachedOnlyByBench {
		onlyBench[key] = true
		obj, ok := byKey[key]
		switch {
		case !ok:
			t.Errorf("reachedOnlyByBench lists %s, which is not an export", key)
		case !reached[obj][bench]:
			t.Errorf("reachedOnlyByBench lists %s, which bench/ no longer reaches", key)
		case len(reached[obj]) > 1:
			t.Errorf("reachedOnlyByBench lists %s, which code outside bench/ reaches too", key)
		}
	}
	for key := range reachedOnlyByTests {
		if obj, ok := byKey[key]; !ok {
			t.Errorf("reachedOnlyByTests lists %s, which is not an export", key)
		} else if len(reached[obj]) > 0 {
			t.Errorf("reachedOnlyByTests lists %s, which non-test code reaches", key)
		}
	}
	var unreached []string
	for obj, key := range exports {
		switch {
		case onlyBench[key], reachedOnlyByTests[key] != "":
		case len(reached[obj]) == 1 && reached[obj][bench]:
			t.Errorf("%s is reached outside tests only by bench/; add it to reachedOnlyByBench", key)
		case len(reached[obj]) == 0:
			unreached = append(unreached, key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s is reached only by tests: delete it, or unexport it if its package needs it", key)
	}
}
