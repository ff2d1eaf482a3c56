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
// packages whose non-test files set it: as a composite-literal key (or
// position), as the target of an assignment or ++/--, or by passing its
// address to a call, explicitly (&cfg.F) or as the receiver of a
// pointer method (cfg.F.BindFlags(fs)).
func (c *census) setters() map[*types.Var]map[string]bool {
	out := map[*types.Var]map[string]bool{}
	for _, p := range c.pkgs {
		if isTestSupport(p.Path) {
			continue
		}
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
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
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
	}
	return out
}

// TestEverySettingIsSetOutsideTests: every census field is set by some
// non-test code outside its own package (bench/, cmd/ and examples/
// count), is decoded from outside input (a json tag), or is listed
// above with its reason. A setting only tests turn is a configuration
// that neither the benchmark nor any golden exercises: make it a
// constant, or an unexported field the package's own tests set. Every
// other exported field of an exported struct is set by some non-test
// code, its own package's included, or has a json tag: a field only
// tests set is state production never holds.
func TestEverySettingIsSetOutsideTests(t *testing.T) {
	c, err := takeCensus()
	if err != nil {
		t.Fatal(err)
	}
	setters := c.setters()
	for v, pkgs := range setters {
		if !c.vars[v].census {
			continue
		}
		delete(pkgs, v.Pkg().Path())
	}
	bench := module + "/bench"
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
			t.Errorf("setOnlyByBench lists %s, which is not a census field", key)
		case !setters[v][bench]:
			t.Errorf("setOnlyByBench lists %s, which bench/ no longer sets", key)
		case len(setters[v]) > 1:
			t.Errorf("setOnlyByBench lists %s, which code outside bench/ sets too", key)
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
		case !row.census:
			if !row.tagged && len(setters[v]) == 0 && !isTestSupport(v.Pkg().Path()) {
				unset = append(unset, row.key)
			}
		case row.tagged, onlyBench[row.key]:
		case setOnlyInOwnPackage[row.key] != "", setOnlyInOwnPackage[typ] != "":
		case len(setters[v]) == 1 && setters[v][bench]:
			t.Errorf("%s is set outside its package only by bench/; add it to setOnlyByBench", row.key)
		case len(setters[v]) == 0:
			unset = append(unset, row.key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s is set only by tests: make it a constant or an unexported field", key)
	}
}
