package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockSafety enforces the concurrency discipline of the functional RPC
// stack. It flags (1) lock values copied by value (parameters, results,
// assignments, range variables), (2) mutexes held across blocking
// operations — channel sends/receives, blocking selects, sync.WaitGroup/
// sync.Cond waits, time.Sleep — and (3) return paths on which a locked
// mutex is provably still held (the missing-defer-unlock bug class).
// It also machine-checks `// dagger:requires-lock <field>` annotations:
// helpers documented as "caller holds <recv>.<field>" (e.g.
// Reliable.peer) must only be called where the simulation can prove
// that mutex is held.
var LockSafety = &Analyzer{
	Name: "locksafety",
	Doc: "flag copied locks, mutexes held across blocking operations, " +
		"return paths that leak a held mutex, and calls into " +
		"dagger:requires-lock helpers without the required mutex",
	Run: runLockSafety,
}

// lockScopes are the packages forming the concurrent data path, plus the
// examples users copy concurrency idioms from.
var lockScopes = []string{
	"dagger/internal/core",
	"dagger/internal/transport",
	"dagger/internal/fabric",
	"dagger/examples",
}

func runLockSafety(pass *Pass) error {
	if !pathIn(pass.Path, lockScopes...) {
		return nil
	}
	requires := collectRequiresLock(pass)
	for _, f := range pass.Files {
		checkCopiedLocks(pass, f)
		// Check every function body — declarations and literals — with a
		// fresh lock state; a goroutine or deferred closure does not hold
		// the locks of its creator. Annotated helpers start with the
		// caller's mutex modeled as held.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					ls := &lockSim{pass: pass, requires: requires}
					ls.scanBlock(n.Body.List, seededState(pass, requires, n))
				}
			case *ast.FuncLit:
				ls := &lockSim{pass: pass, requires: requires}
				ls.scanBlock(n.Body.List, make(lockState))
			}
			return true
		})
	}
	return nil
}

// requiresLockPrefix introduces a lock-precondition annotation in a
// function's doc comment:
//
//	// dagger:requires-lock mu
//	func (r *Reliable) peer(endpoint string) *peer { ... }
//
// declares that callers of r.peer must hold r.mu at the call site.
const requiresLockPrefix = "dagger:requires-lock"

// collectRequiresLock maps every annotated function in the package to the
// mutex field its callers must hold. Malformed annotations (no field name)
// are reported rather than silently ignored.
func collectRequiresLock(pass *Pass) map[*types.Func]string {
	out := make(map[*types.Func]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, requiresLockPrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					pass.Reportf(fd.Name.Pos(),
						"dagger:requires-lock annotation missing the mutex field name")
					continue
				}
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fields[0]
				}
			}
		}
	}
	return out
}

// seededState returns the initial lock state for fd's body: empty, unless
// fd carries a dagger:requires-lock annotation, in which case the caller's
// mutex is modeled as held — with a pending deferred unlock, since
// releasing it is the caller's job, not a leak in the helper.
func seededState(pass *Pass, requires map[*types.Func]string, fd *ast.FuncDecl) lockState {
	st := make(lockState)
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return st
	}
	field, ok := requires[fn]
	if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return st
	}
	st[fd.Recv.List[0].Names[0].Name+"."+field] = &mutexState{depth: 1, deferred: true}
	return st
}

// checkCopiedLocks flags by-value traffic in lock-containing types.
func checkCopiedLocks(pass *Pass, f *ast.File) {
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			if containsLock(t) {
				pass.Reportf(field.Type.Pos(),
					"%s passes lock by value: %s contains a sync primitive; use a pointer", what, t)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFieldList(n.Recv, "receiver")
			checkFieldList(n.Type.Params, "parameter")
			checkFieldList(n.Type.Results, "result")
		case *ast.FuncLit:
			checkFieldList(n.Type.Params, "parameter")
			checkFieldList(n.Type.Results, "result")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Rhs) != len(n.Lhs) {
					break
				}
				// Assignment to blank compiles to a no-op; no copy happens.
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				// Copying an existing lock-containing value (variable,
				// field, or dereference). Fresh composite literals and
				// function calls are legitimate initialization.
				switch ast.Unparen(rhs).(type) {
				case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
				default:
					continue
				}
				t := pass.TypeOf(rhs)
				if t == nil {
					continue
				}
				if _, isPtr := t.(*types.Pointer); isPtr {
					continue
				}
				if containsLock(t) {
					pass.Reportf(n.Rhs[i].Pos(),
						"assignment copies lock value: %s contains a sync primitive", t)
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			t := pass.TypeOf(n.Value)
			if t == nil {
				return true
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				return true
			}
			if containsLock(t) {
				pass.Reportf(n.Value.Pos(),
					"range value copies lock value: %s contains a sync primitive; range over indices or pointers", t)
			}
		}
		return true
	})
	_ = f
}

// lockState tracks, per canonical mutex expression (e.g. "c.mu"), how many
// times it is currently locked and whether an unlock is deferred.
type lockState map[string]*mutexState

type mutexState struct {
	depth    int
	deferred bool
	rlock    bool
}

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// anyHeld returns the name of a mutex currently held (including via a
// pending deferred unlock), or "".
func (s lockState) anyHeld() string {
	for k, v := range s {
		if v.depth > 0 {
			return k
		}
	}
	return ""
}

// lockSim is a conservative intra-procedural simulation of mutex state. It
// scans statement lists sequentially, recursing into branches with cloned
// state; branch effects only propagate out of straight-line code, which
// keeps the checker simple and biases it toward no false positives on the
// common lock/early-return/unlock shapes.
type lockSim struct {
	pass *Pass
	// requires maps annotated helpers to the mutex field their callers
	// must hold (see requiresLockPrefix).
	requires map[*types.Func]string
}

// scanBlock scans stmts under state st, returning the resulting state and
// whether the block always terminates (returns or panics).
func (ls *lockSim) scanBlock(stmts []ast.Stmt, st lockState) (lockState, bool) {
	for _, stmt := range stmts {
		var terminated bool
		st, terminated = ls.scanStmt(stmt, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (ls *lockSim) scanStmt(stmt ast.Stmt, st lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if name, locking, isR := mutexOp(ls.pass, s.X); name != "" {
			ms := st[name]
			if ms == nil {
				ms = &mutexState{}
				st[name] = ms
			}
			if locking {
				ms.depth++
				ms.rlock = isR
			} else if ms.depth > 0 {
				ms.depth--
			}
			return st, false
		}
		ls.checkExpr(s.X, st)
	case *ast.DeferStmt:
		if name, locking, _ := mutexOp(ls.pass, s.Call); name != "" && !locking {
			ms := st[name]
			if ms == nil {
				ms = &mutexState{}
				st[name] = ms
			}
			ms.deferred = true
		}
		// The deferred call itself runs at return; its body is scanned
		// separately if it is a FuncLit.
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.checkExpr(e, st)
		}
		for name, ms := range st {
			if ms.depth > 0 && !ms.deferred {
				verb := "Unlock"
				if ms.rlock {
					verb = "RUnlock"
				}
				ls.pass.Reportf(stmt.Pos(),
					"return with %s held; unlock before returning or use defer %s.%s()", name, name, verb)
			}
		}
		return st, true
	case *ast.SendStmt:
		if held := st.anyHeld(); held != "" {
			ls.pass.Reportf(stmt.Pos(),
				"channel send while holding %s; a full channel blocks with the mutex held", held)
		}
		ls.checkRequiresLock(s.Chan, st)
		ls.checkRequiresLock(s.Value, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = ls.scanStmt(s.Init, st)
		}
		ls.checkExpr(s.Cond, st)
		thenSt, thenTerm := ls.scanBlock(s.Body.List, st.clone())
		var elseTerm bool
		elseSt := st
		if s.Else != nil {
			elseSt, elseTerm = ls.scanStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeStates(thenSt, elseSt), false
		}
	case *ast.BlockStmt:
		return ls.scanBlock(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = ls.scanStmt(s.Init, st)
		}
		if s.Cond != nil {
			ls.checkExpr(s.Cond, st)
		}
		ls.scanBlock(s.Body.List, st.clone())
	case *ast.RangeStmt:
		ls.checkExpr(s.X, st)
		ls.scanBlock(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = ls.scanStmt(s.Init, st)
		}
		ls.checkExpr(s.Tag, st)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.scanBlock(cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.scanBlock(cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if held := st.anyHeld(); held != "" {
				ls.pass.Reportf(s.Pos(),
					"blocking select while holding %s; unlock before waiting", held)
			}
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				ls.scanBlock(cc.Body, st.clone())
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.checkExpr(e, st)
		}
	case *ast.DeclStmt:
		// no lock effects
	case *ast.GoStmt:
		// The spawned goroutine does not hold our locks; its body (if a
		// FuncLit) is scanned separately with fresh state.
	case *ast.LabeledStmt:
		return ls.scanStmt(s.Stmt, st)
	}
	return st, false
}

// mergeStates combines two branch outcomes conservatively (minimum depth),
// so that a branch that conditionally locks does not poison the
// fall-through path with false "held" reports.
func mergeStates(a, b lockState) lockState {
	out := make(lockState)
	for k, av := range a {
		c := *av
		if bv, ok := b[k]; ok {
			if bv.depth < c.depth {
				c.depth = bv.depth
			}
			c.deferred = c.deferred || bv.deferred
		} else {
			c.depth = 0
		}
		out[k] = &c
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			c := *bv
			c.depth = 0
			out[k] = &c
		}
	}
	return out
}

// checkExpr applies the expression-level checks under lock state st:
// blocking operations while a mutex is held, and calls into
// dagger:requires-lock helpers without the required mutex.
func (ls *lockSim) checkExpr(e ast.Expr, st lockState) {
	ls.checkBlocking(e, st)
	ls.checkRequiresLock(e, st)
}

// checkRequiresLock reports calls to annotated helpers whose required
// mutex is not provably held at the call site. The receiver expression is
// canonicalized textually — `o.c.locked(k)` annotated with field `mu`
// requires `o.c.mu` held — matching the lockSim's own canonical names.
// Deferred and go'ed calls run under a different lock regime and are not
// checked; calls through method values lose the receiver and stay silent.
func (ls *lockSim) checkRequiresLock(e ast.Expr, st lockState) {
	if e == nil || len(ls.requires) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later / elsewhere
		case *ast.CallExpr:
			fn := calleeFunc(ls.pass.Info, n)
			if fn == nil {
				return true
			}
			field, ok := ls.requires[fn]
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			want := types.ExprString(sel.X) + "." + field
			if ms := st[want]; ms == nil || ms.depth == 0 {
				ls.pass.Reportf(n.Pos(),
					"call to %s requires holding %s (dagger:requires-lock)", fn.Name(), want)
			}
		}
		return true
	})
}

// checkBlocking reports blocking operations inside expression e while a
// mutex is held: channel receives and calls to the known blocking set.
func (ls *lockSim) checkBlocking(e ast.Expr, st lockState) {
	held := st.anyHeld()
	if held == "" || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later / elsewhere
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				ls.pass.Reportf(n.Pos(),
					"channel receive while holding %s; an empty channel blocks with the mutex held", held)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(ls.pass.Info, n); fn != nil && fn.Pkg() != nil {
				switch {
				case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
					ls.pass.Reportf(n.Pos(), "time.Sleep while holding %s", held)
				case fn.Pkg().Path() == "sync" && fn.Name() == "Wait":
					ls.pass.Reportf(n.Pos(), "sync %s.Wait() while holding %s blocks with the mutex held",
						recvText(n), held)
				}
			}
		}
		return true
	})
}

// mutexOp matches e against `x.Lock()`, `x.RLock()`, `x.Unlock()`,
// `x.RUnlock()` on a sync.Mutex or sync.RWMutex and returns the canonical
// receiver text, whether it is a lock acquisition, and whether it is the
// reader form.
func mutexOp(pass *Pass, e ast.Expr) (name string, locking, rlock bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, fn.Name() == "RLock"
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, fn.Name() == "RUnlock"
	}
	return "", false, false
}

// recvText renders the receiver of a method call for diagnostics.
func recvText(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}
