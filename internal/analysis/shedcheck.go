package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"dagger/internal/analysis/flow"
)

// ShedCheck enforces that dataplane verdicts are acted on. dataplane.ShouldShed
// (and its substrate entry points, core.ShedDecision and friends) decide
// whether a request's deadline budget has expired; dataplane.Mark decides
// whether a queue admission must carry an ECN-style congestion stamp.
// Computing either verdict and then ignoring it silently re-introduces the
// failure the policy exists to prevent: doomed work dispatched anyway, or a
// congested queue that never tells its clients to back off.
//
// The analysis tracks verdict-producing calls flow-sensitively over the
// internal/analysis/flow CFG. A verdict bound to a local variable is
// "pending" until the variable is read (branched on, stored, passed along).
// Reports:
//
//   - a verdict-producing call whose result is discarded (bare expression
//     statement or assigned to _): the policy ran but nothing can act on it;
//   - a handler dispatch — calling a value of a dagger Handler function type
//     — while a verdict is still pending: the request is executed before the
//     decision is consulted;
//   - a path leaving the function with a verdict still pending: the decision
//     was computed but never examined.
var ShedCheck = &Analyzer{
	Name:  "shedcheck",
	Doc:   "shed and congestion verdicts must be consulted, not dropped",
	Tests: false,
	Run:   runShedCheck,
}

// shedScopes is everywhere the shed and congestion policies are consulted:
// the functional server and fabric, the timing models, the experiments
// driving them, and the policy layer itself.
var shedScopes = []string{
	"dagger/internal/core",
	"dagger/internal/dataplane",
	"dagger/internal/fabric",
	"dagger/internal/nicmodel",
	"dagger/internal/microsim",
	"dagger/internal/experiments",
}

// shedFact maps local variables holding an unconsulted shed verdict to the
// position of the call that produced it.
type shedFact map[types.Object]token.Pos

type shedAnalysis struct {
	pass     *Pass
	rep      ownReporter
	reported map[token.Pos]bool
	// pendingAtExit collects verdicts alive at returns/exit for one report
	// per producing call.
	pendingAtExit map[token.Pos]token.Pos // producing call -> exit position
	// kindAt remembers which policy produced the verdict at a call position
	// ("shed" or "congestion"), for kind-aware diagnostics.
	kindAt map[token.Pos]string
}

func runShedCheck(pass *Pass) error {
	if !pathIn(pass.Path, shedScopes...) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeShed(pass, fn.Body)
				}
			case *ast.FuncLit:
				analyzeShed(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

func analyzeShed(pass *Pass, body *ast.BlockStmt) {
	a := &shedAnalysis{
		pass:          pass,
		reported:      make(map[token.Pos]bool),
		pendingAtExit: make(map[token.Pos]token.Pos),
		kindAt:        make(map[token.Pos]string),
	}
	g := flow.New(body)
	r := flow.Forward[shedFact](g, a)
	if !r.Converged {
		return
	}
	r.Visit(func(n ast.Node, before shedFact) {
		a.rep = func(pos token.Pos, format string, args ...any) {
			if !a.reported[pos] {
				a.reported[pos] = true
				pass.Reportf(pos, format, args...)
			}
		}
		a.scan(n, before)
		a.rep = nil
	})
	for site, pos := range a.pendingAtExit {
		pass.Reportf(pos, "%s verdict computed at line %d is never examined",
			a.kind(site), pass.Fset.Position(site).Line)
	}
}

// kind returns the policy kind recorded for the verdict call at site.
func (a *shedAnalysis) kind(site token.Pos) string {
	if k := a.kindAt[site]; k != "" {
		return k
	}
	return "shed"
}

// isVerdictCall reports a call to a dagger policy entry point whose bool
// result demands action: the shed policy (ShouldShed, ShedDecision) anywhere
// under dagger, and the congestion mark policy (Mark) in the dataplane
// package — the name is too generic to match repo-wide. The producing call's
// kind is recorded for diagnostics.
func (a *shedAnalysis) isVerdictCall(call *ast.CallExpr) bool {
	fn := calleeFunc(a.pass.Info, call)
	if fn == nil || !inDagger(fn) {
		return false
	}
	var kind string
	switch fn.Name() {
	case "ShouldShed", "ShedDecision":
		kind = "shed"
	case "Mark":
		if fn.Pkg() == nil || !pathIn(fn.Pkg().Path(), "dagger/internal/dataplane") {
			return false
		}
		kind = "congestion"
	default:
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return false
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Bool {
		return false
	}
	a.kindAt[call.Pos()] = kind
	return true
}

// isHandlerDispatch reports a call through a value whose type is a dagger
// named function type called Handler — the server's request-dispatch shape.
func (a *shedAnalysis) isHandlerDispatch(call *ast.CallExpr) bool {
	t := a.pass.Info.TypeOf(call.Fun)
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if _, isSig := named.Underlying().(*types.Signature); !isSig {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	return named.Obj().Name() == "Handler" &&
		(pkg == "dagger" || pathIn(pkg, "dagger"))
}

// --- flow.Analysis implementation ---

func (a *shedAnalysis) Entry() shedFact { return shedFact{} }

func (a *shedAnalysis) Transfer(n ast.Node, in shedFact) shedFact {
	out := make(shedFact, len(in))
	for k, v := range in {
		out[k] = v
	}
	// Any read of a pending verdict consults it; finding reads is cheaper
	// than enumerating the ways a bool can be used, so clear on every
	// identifier use outside the binding position.
	binding := map[types.Object]bool{}
	if as, ok := n.(*ast.AssignStmt); ok {
		if len(as.Rhs) == 1 {
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && a.isVerdictCall(call) {
				for _, l := range as.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
						if obj := a.pass.Info.ObjectOf(id); obj != nil {
							out[obj] = call.Pos()
							binding[obj] = true
						}
					}
				}
			}
		}
	}
	shedInspect(n, func(sub ast.Node) bool {
		id, ok := sub.(*ast.Ident)
		if !ok {
			return true
		}
		obj := a.pass.Info.ObjectOf(id)
		if obj == nil || binding[obj] {
			return true
		}
		delete(out, obj)
		return true
	})
	return out
}

func (a *shedAnalysis) Join(x, y shedFact) shedFact {
	out := make(shedFact, len(x)+len(y))
	for k, v := range x {
		out[k] = v
	}
	for k, v := range y {
		out[k] = v
	}
	return out
}

func (a *shedAnalysis) Equal(x, y shedFact) bool {
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if w, ok := y[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// shedInspect walks n skipping function literal bodies and range bodies
// (both are covered elsewhere: literals by their own analysis, range bodies
// by their own CFG blocks).
func shedInspect(n ast.Node, visit func(ast.Node) bool) {
	root := n
	switch n := n.(type) {
	case *flow.ExitMark:
		// Synthetic node; ast.Walk cannot visit it.
		return
	case *ast.RangeStmt:
		root = n.X
	}
	if root == nil {
		return
	}
	ast.Inspect(root, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		return visit(sub)
	})
}

// --- reporting ---

func (a *shedAnalysis) scan(n ast.Node, before shedFact) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && a.isVerdictCall(call) {
			a.rep(call.Pos(), "%s verdict from %s is discarded: the policy ran but nothing acts on it",
				a.kind(call.Pos()), callName(call))
			return
		}
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && a.isVerdictCall(call) {
				allBlank := true
				for _, l := range n.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); !ok || id.Name != "_" {
						allBlank = false
					}
				}
				if allBlank {
					a.rep(call.Pos(), "%s verdict from %s is discarded: the policy ran but nothing acts on it",
						a.kind(call.Pos()), callName(call))
					return
				}
			}
		}
	case *ast.ReturnStmt:
		a.recordPending(n.Return, before)
	case *flow.ExitMark:
		a.recordPending(n.Pos(), before)
	}
	shedInspect(n, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		if a.isHandlerDispatch(call) {
			if site, live := a.anyPending(before); live {
				a.rep(call.Pos(), "request dispatched to handler while the %s verdict from line %d is still unexamined",
					a.kind(site), a.pass.Fset.Position(site).Line)
			}
		}
		return true
	})
}

// anyPending returns the earliest pending verdict site for deterministic
// messages.
func (a *shedAnalysis) anyPending(f shedFact) (token.Pos, bool) {
	best := token.NoPos
	for _, site := range f {
		if best == token.NoPos || site < best {
			best = site
		}
	}
	return best, best != token.NoPos
}

func (a *shedAnalysis) recordPending(pos token.Pos, f shedFact) {
	if a.rep == nil {
		return
	}
	for _, site := range f {
		if _, seen := a.pendingAtExit[site]; !seen {
			a.pendingAtExit[site] = pos
		}
	}
}
