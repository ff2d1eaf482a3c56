// Package lockcheck enforces the service tier's mutex discipline.
//
// The durable service tier (jobs, cluster, journal, simcache, tenant,
// advise, server, collectives) is heavily concurrent, and its
// correctness contracts were until now enforced only by tests and
// review — PR 8's review alone found a same-key double-count race in
// simcache.Store.put that a static pass would have flagged. lockcheck
// walks every function with a small path-sensitive interpreter that
// tracks which sync.Mutex/RWMutex values are held and reports:
//
//   - a return (or explicit panic) reached while a lock acquired in the
//     same function is still held and no defer releases it — the
//     classic missing-unlock-on-early-return bug;
//   - acquiring a lock that is already held on the same path (double
//     lock, or RLock/Lock mixing on one RWMutex: self-deadlock);
//   - releasing a read lock with Unlock or a write lock with RUnlock;
//   - blocking operations performed while any lock is held: channel
//     send/receive (outside a select with a default), ranging over a
//     channel, select without default, sync.WaitGroup.Wait,
//     time.Sleep, (*os.File).Sync and net/http calls — the shape of
//     the critical-section stall the WAL batching design must opt
//     into explicitly (//ceslint:allow with a reason);
//   - lock-containing values copied: parameters, results and plain
//     assignments that pass a sync.Mutex/RWMutex by value (the
//     constructor-smuggling variant go vet's copylocks misses when the
//     lock is buried in a nested struct is covered the same way).
//
// The interpreter is intentionally conservative: states from branches
// are merged by intersection (a lock is "held" after a branch only if
// every surviving path holds it), unlocks of locks the function never
// acquired are assumed to be *Locked-helper convention and ignored,
// and function literals are analyzed as independent functions.
package lockcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the lockcheck check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "enforce mutex discipline in the service tier: unlock on every " +
		"return path, no double lock, no RLock/Unlock mixing, no blocking " +
		"calls under a lock, no locks copied by value",
	Run: run,
}

// Packages scopes the check to the concurrent service tier. Engine
// packages are lock-free by design and stay out so the check can be
// strict where it matters. Tests may add fixture paths.
var Packages = map[string]bool{
	"repro/internal/jobs":        true,
	"repro/internal/cluster":     true,
	"repro/internal/journal":     true,
	"repro/internal/simcache":    true,
	"repro/internal/tenant":      true,
	"repro/internal/advise":      true,
	"repro/internal/server":      true,
	"repro/internal/collectives": true,
	"repro/internal/faultinject": true,
	"repro/internal/memo":        true,
}

// lockKind distinguishes how a mutex is held.
type lockKind int

const (
	heldWrite lockKind = iota
	heldRead
)

// state is the interpreter's per-path lock state.
type state struct {
	held     map[string]lockKind // canonical lock expr -> how it is held
	deferred map[string]bool     // locks a registered defer will release
}

func newState() *state {
	return &state{held: map[string]lockKind{}, deferred: map[string]bool{}}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// merge intersects the held sets of two surviving paths: a lock still
// counts as held only when both paths hold it the same way. Deferred
// releases are unioned — a defer registered on any path runs at exit.
func (s *state) merge(o *state) {
	for k, v := range s.held {
		if ov, ok := o.held[k]; !ok || ov != v {
			delete(s.held, k)
		}
	}
	for k := range o.deferred {
		s.deferred[k] = true
	}
}

// checker analyzes one function body.
type checker struct {
	pass *analysis.Pass
	fn   string // for messages
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !Packages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c := &checker{pass: pass, fn: fn.Name.Name}
					c.checkSignature(fn.Type)
					c.walkBody(fn.Body)
				}
			case *ast.FuncLit:
				c := &checker{pass: pass, fn: "func literal"}
				c.checkSignature(fn.Type)
				c.walkBody(fn.Body)
			}
			return true
		})
	}
	return nil, nil
}

// walkBody interprets a function body with fresh lock state and checks
// the implicit return at its end.
func (c *checker) walkBody(body *ast.BlockStmt) {
	st := newState()
	terminated := c.walkStmts(body.List, st)
	if !terminated {
		c.checkExit(st, body.Rbrace, "function end")
	}
}

// walkStmts interprets a statement list, returning true when every
// path through it terminates (return, panic, fatal exit).
func (c *checker) walkStmts(list []ast.Stmt, st *state) bool {
	for _, stmt := range list {
		if c.walkStmt(stmt, st) {
			return true
		}
	}
	return false
}

// walkStmt interprets one statement. It returns true when the
// statement terminates the current path.
func (c *checker) walkStmt(stmt ast.Stmt, st *state) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		c.scanExpr(s.X, st)
		c.applyCall(s.X, st)
		if c.terminates(s.X) {
			// panic/os.Exit/log.Fatal ends this path: a lock still held
			// here leaks exactly like an early return does.
			c.checkExit(st, s.X.Pos(), "panic/exit")
			return true
		}
		return false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.scanExpr(e, st)
		}
		c.checkLockCopy(s)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scanExpr(v, st)
					}
				}
			}
		}
		return false
	case *ast.DeferStmt:
		c.applyDefer(s, st)
		return false
	case *ast.GoStmt:
		// The spawned goroutine runs with its own (empty) lock state;
		// its body is analyzed as an independent function literal.
		return false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scanExpr(e, st)
		}
		c.checkExit(st, s.Pos(), "return")
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.scanExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := c.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseTerm = c.walkStmts(e.List, elseSt)
			case *ast.IfStmt:
				elseTerm = c.walkStmt(e, elseSt)
			}
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			thenSt.merge(elseSt)
			*st = *thenSt
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.scanExpr(s.Cond, st)
		}
		bodySt := st.clone()
		c.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			c.walkStmt(s.Post, bodySt)
		}
		// One symbolic iteration: locks balanced inside the body leave
		// the state unchanged; imbalance is merged conservatively.
		st.merge(bodySt)
		// for{} with no condition and no break-out analysis: assume it
		// may terminate paths only via return inside (handled above).
		return false
	case *ast.RangeStmt:
		c.scanExpr(s.X, st)
		if len(st.held) > 0 && c.isChanType(s.X) {
			c.reportHeld(st, s.Pos(), "ranges over a channel")
		}
		bodySt := st.clone()
		c.walkStmts(s.Body.List, bodySt)
		st.merge(bodySt)
		return false
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.scanExpr(s.Tag, st)
		}
		return c.walkCases(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		return c.walkCases(s.Body, st, false)
	case *ast.SelectStmt:
		// A select with a default never blocks; one without blocks the
		// whole statement, which is reported once here. Either way the
		// comm clauses themselves are walked with channel-op reporting
		// suppressed (walkCases) so one select never double-reports.
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(st.held) > 0 {
			c.reportHeld(st, s.Pos(), "blocks in a select with no default")
		}
		return c.walkCases(s.Body, st, true)
	case *ast.SendStmt:
		c.scanExpr(s.Value, st)
		if len(st.held) > 0 {
			c.reportHeld(st, s.Pos(), "sends on a channel")
		}
		return false
	case *ast.BlockStmt:
		return c.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto end this path's statement list; lock
		// balance across them is out of scope for one-iteration loops.
		return true
	case *ast.IncDecStmt:
		c.scanExpr(s.X, st)
		return false
	default:
		return false
	}
}

// walkCases interprets the clauses of a switch or select body. comm
// selects CommClause handling (whose comm statement was checked by the
// caller).
func (c *checker) walkCases(body *ast.BlockStmt, st *state, comm bool) bool {
	var surviving []*state
	sawDefault := false
	allTerm := true
	for _, cl := range body.List {
		clSt := st.clone()
		var list []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				sawDefault = true
			}
			for _, e := range cc.List {
				c.scanExpr(e, clSt)
			}
			list = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				sawDefault = true
			}
			// The comm statement's channel op was accounted for at the
			// select level; it changes no lock state, so it is skipped.
			list = cc.Body
		}
		if c.walkStmts(list, clSt) {
			continue // this clause terminates
		}
		allTerm = false
		surviving = append(surviving, clSt)
	}
	if !sawDefault && !comm {
		// Fall-through past every case is possible.
		surviving = append(surviving, st.clone())
		allTerm = false
	}
	if len(surviving) == 0 {
		return allTerm && len(body.List) > 0
	}
	merged := surviving[0]
	for _, o := range surviving[1:] {
		merged.merge(o)
	}
	*st = *merged
	return false
}

// applyCall updates lock state for a direct Lock/Unlock-family call.
func (c *checker) applyCall(e ast.Expr, st *state) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	recv, method, isRW := c.lockMethod(call)
	if method == "" {
		return
	}
	key := exprKey(recv)
	switch method {
	case "Lock":
		if k, held := st.held[key]; held {
			if k == heldWrite {
				c.pass.Reportf(call.Pos(), "%s.Lock: lock is already held on this path (double lock deadlocks)", key)
			} else {
				c.pass.Reportf(call.Pos(), "%s.Lock while the read lock is held: lock upgrade self-deadlocks", key)
			}
			return
		}
		st.held[key] = heldWrite
	case "RLock":
		if k, held := st.held[key]; held && k == heldWrite {
			c.pass.Reportf(call.Pos(), "%s.RLock while the write lock is held on this path (self-deadlock)", key)
			return
		}
		st.held[key] = heldRead
	case "Unlock":
		if k, held := st.held[key]; held {
			if k == heldRead && isRW {
				c.pass.Reportf(call.Pos(), "%s.Unlock releases a lock acquired with RLock; use RUnlock", key)
			}
			delete(st.held, key)
		}
		// Unlock of a lock this function never acquired: *Locked-helper
		// convention (the caller holds it); not reported.
	case "RUnlock":
		if k, held := st.held[key]; held {
			if k == heldWrite {
				c.pass.Reportf(call.Pos(), "%s.RUnlock releases a lock acquired with Lock; use Unlock", key)
			}
			delete(st.held, key)
		}
	}
}

// applyDefer registers deferred unlocks, including those buried in a
// deferred closure.
func (c *checker) applyDefer(d *ast.DeferStmt, st *state) {
	if recv, method, _ := c.lockMethod(d.Call); method == "Unlock" || method == "RUnlock" {
		st.deferred[exprKey(recv)] = true
		return
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if recv, method, _ := c.lockMethod(call); method == "Unlock" || method == "RUnlock" {
					st.deferred[exprKey(recv)] = true
				}
			}
			return true
		})
	}
}

// checkExit reports locks still held at a return/panic that no defer
// releases.
func (c *checker) checkExit(st *state, pos token.Pos, what string) {
	for key := range st.held {
		if st.deferred[key] {
			continue
		}
		c.pass.Reportf(pos, "%s with %s still locked and no deferred unlock (missing unlock on this path)", what, key)
	}
}

// reportHeld reports one blocking operation performed under each held
// lock.
func (c *checker) reportHeld(st *state, pos token.Pos, what string) {
	for key := range st.held {
		c.pass.Reportf(pos, "%s while holding %s: the critical section blocks on I/O or another goroutine", what, key)
	}
}

// scanExpr inspects an expression tree (not descending into function
// literals) for blocking operations performed while a lock is held.
func (c *checker) scanExpr(e ast.Expr, st *state) {
	if e == nil || len(st.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.reportHeld(st, x.Pos(), "receives from a channel")
			}
		case *ast.CallExpr:
			if name := c.blockingCall(x); name != "" {
				c.reportHeld(st, x.Pos(), "calls "+name)
			}
		}
		return true
	})
}

// terminates reports whether a call expression never returns.
func (c *checker) terminates(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		obj, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return false
		}
		full := obj.Pkg().Path() + "." + obj.Name()
		switch full {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
		if obj.Pkg().Path() == "log" && strings.HasPrefix(obj.Name(), "Fatal") {
			return true
		}
	}
	return false
}

// blockingCall returns a printable name when the call blocks by
// nature: WaitGroup.Wait, time.Sleep, (*os.File).Sync, net/http
// round-trips.
func (c *checker) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return ""
	}
	full := obj.FullName()
	switch full {
	case "(*sync.WaitGroup).Wait":
		return "sync.WaitGroup.Wait"
	case "time.Sleep":
		return "time.Sleep"
	case "(*os.File).Sync":
		return "os.File.Sync"
	}
	if obj.Pkg().Path() == "net/http" {
		switch obj.Name() {
		case "Get", "Head", "Post", "PostForm", "Do":
			return "net/http." + obj.Name()
		}
	}
	return ""
}

// lockMethod resolves a call to a sync.Mutex/RWMutex method, returning
// the receiver expression, the method name and whether the receiver is
// an RWMutex. method is "" when the call is not a lock operation.
func (c *checker) lockMethod(call *ast.CallExpr) (recv ast.Expr, method string, isRW bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	obj, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", false
	}
	tname := recvTypeName(sig.Recv().Type())
	if tname != "Mutex" && tname != "RWMutex" {
		return nil, "", false
	}
	switch obj.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return sel.X, obj.Name(), tname == "RWMutex"
	}
	return nil, "", false
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// exprKey renders a canonical name for a lock receiver expression so
// "s.mu" in two statements resolves to the same lock.
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.IndexExpr:
		return exprKey(x.X) + "[" + exprKey(x.Index) + "]"
	case *ast.CallExpr:
		return exprKey(x.Fun) + "()"
	case *ast.BasicLit:
		return x.Value
	default:
		return fmt.Sprintf("expr@%d", e.Pos())
	}
}

// isChanType reports whether e has a channel type.
func (c *checker) isChanType(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// checkSignature reports parameters and results that pass a
// sync.Mutex/RWMutex by value.
func (c *checker) checkSignature(ft *ast.FuncType) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := c.pass.TypesInfo.Types[field.Type]
			if !ok || tv.Type == nil {
				continue
			}
			if containsLock(tv.Type, nil) {
				c.pass.Reportf(field.Pos(), "%s passes a sync.Mutex/RWMutex by value; pass a pointer so the lock is shared, not copied", what)
			}
		}
	}
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// checkLockCopy reports assignments that copy a lock-containing value.
func (c *checker) checkLockCopy(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		switch rhs.(type) {
		case *ast.StarExpr, *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		default:
			continue // composite literals, calls, &x: not a copy of a live lock
		}
		if _, isIdent := rhs.(*ast.Ident); isIdent {
			// Plain `x := y` of a zero-value local is common and mostly
			// benign; only deref and field/index copies are confidently
			// copies of a shared lock.
			continue
		}
		tv, ok := c.pass.TypesInfo.Types[rhs]
		if !ok || tv.Type == nil {
			continue
		}
		if containsLock(tv.Type, nil) {
			c.pass.Reportf(rhs.Pos(), "assignment copies a value containing a sync.Mutex/RWMutex; copy a pointer instead")
		}
	}
}

// containsLock reports whether t holds a sync.Mutex or sync.RWMutex by
// value (directly, in a struct field, or in an array element).
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			if obj.Name() == "Mutex" || obj.Name() == "RWMutex" {
				return true
			}
		}
		return containsLock(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}
