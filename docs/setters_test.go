package docs

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// setOnlyInOwnPackage lists the census fields, or whole census types,
// that no non-test file outside their own package sets, with the
// reason each may stay settable.
var setOnlyInOwnPackage = map[string]string{
	"tracegen.Spec":   "a catalog type: its values live in tracegen's workload table",
	"netmodel.Params": "a model type: its values live in netmodel's system table",

	"advise.Inputs.CheckpointNanos": "parsed from the recommend query inside advise",
	"advise.Inputs.RestartNanos":    "parsed from the recommend query inside advise",
}

// setOnlyByBench lists the census fields that only bench/ sets outside
// their own package. They are production seams the benchmark needs and
// wait on a benchmark-only change to go; each must still be set by
// bench/, so the list cannot outlive its reason.
var setOnlyByBench = []string{
	"advise.Config.Store",
	"advise.Config.MaxBatchEvents",
	"advise.Config.CacheEntries",
	"advise.EstimatorConfig.HalfLifeNanos",
	"advise.StoreConfig.Estimator",
	"advise.StoreConfig.MaxTenants",
	"advise.StoreConfig.MaxNodesPerTenant",
	"jobs.Config.Retain",
	"journal.Options.SyncEvery",
	"noise.Config.SaturationFactor",
	"server.Config.JobRetries",
}

// setters maps each field of c.vars to the import paths of the
// packages whose declarations in r set it: as a composite-literal key
// (or position), as the target of an assignment or ++/--, or by passing
// its address to a call, explicitly (&cfg.F) or as the receiver of a
// pointer method (cfg.F.BindFlags(fs)).
func (c *census) setters(r *reachSet) map[*types.Var]map[string]bool {
	out := map[*types.Var]map[string]bool{}
	for _, d := range r.decls {
		p := d.pkg
		set := func(v *types.Var) {
			if _, ok := c.vars[v]; !ok {
				return
			}
			if out[v] == nil {
				out[v] = map[string]bool{}
			}
			out[v][p.Path] = true
		}
		// setChain marks every field selected along an assigned or
		// address-taken expression: a.B.C = x sets both B and C.
		var setChain func(e ast.Expr)
		setChain = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel := p.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					set(sel.Obj().(*types.Var))
					setChain(e.X)
				}
			case *ast.IndexExpr:
				setChain(e.X)
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := p.Info.TypeOf(n).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if v, ok := p.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							set(v)
						}
					} else {
						set(st.Field(i))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					setChain(lhs)
				}
			case *ast.IncDecStmt:
				setChain(n.X)
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
						setChain(u.X)
					}
				}
				fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel := p.Info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrOperand := p.Info.TypeOf(fun.X).Underlying().(*types.Pointer)
					if ptrRecv && !ptrOperand {
						setChain(fun.X)
					}
				}
			}
			return true
		})
	}
	return out
}

// TestEverySettingIsSetOutsideTests: every census field is set outside
// its own package by code a main of a command or an example reaches, is
// decoded from outside input (a json tag), or is listed above with its
// reason. A setting only tests turn is a configuration that neither the
// benchmark nor any golden exercises: make it a constant, or an
// unexported field the package's own tests set. Every other exported
// field of an exported struct is set by code a main reaches, its own
// package's included, or has a json tag: a field only tests set is state
// production never holds.
func TestEverySettingIsSetOutsideTests(t *testing.T) {
	c, err := takeCensus()
	if err != nil {
		t.Fatal(err)
	}
	fromMains, withBench := c.setters(c.fromMains), c.setters(c.withBench)
	for _, setters := range []map[*types.Var]map[string]bool{fromMains, withBench} {
		for v, pkgs := range setters {
			if c.vars[v].census {
				delete(pkgs, v.Pkg().Path())
			}
			if len(pkgs) == 0 {
				delete(setters, v)
			}
		}
	}
	byKey := map[string]*types.Var{}
	for v, row := range c.vars {
		byKey[row.key] = v
	}
	onlyBench := map[string]bool{}
	for _, key := range setOnlyByBench {
		onlyBench[key] = true
		v, ok := byKey[key]
		switch {
		case !ok:
			t.Errorf("setOnlyByBench lists %s, which is not a field of an exported struct", key)
		case withBench[v] == nil:
			t.Errorf("setOnlyByBench lists %s, which bench/ no longer sets", key)
		case fromMains[v] != nil:
			t.Errorf("setOnlyByBench lists %s, which a main outside bench/ sets too", key)
		}
	}
	for key := range setOnlyInOwnPackage {
		if _, ok := c.fields[key]; !ok && byKey[key] == nil {
			t.Errorf("setOnlyInOwnPackage lists %s, which is neither a census type nor a census field", key)
		}
	}
	var unset []string
	for v, row := range c.vars {
		typ := row.key[:strings.LastIndex(row.key, ".")]
		switch {
		case row.tagged, onlyBench[row.key], fromMains[v] != nil, isTestSupport(v.Pkg().Path()):
		case row.census && (setOnlyInOwnPackage[row.key] != "" || setOnlyInOwnPackage[typ] != ""):
		case withBench[v] != nil:
			t.Errorf("%s is set outside tests only by code bench/ reaches; add it to setOnlyByBench", row.key)
		default:
			unset = append(unset, row.key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s is set only by tests: make it a constant or an unexported field", key)
	}
}
