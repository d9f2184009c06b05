package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineShutdown audits every go statement in the long-running
// packages (cmd/clued by Config, or any package carrying a
// //cluevet:goroutines comment) for a shutdown edge: some construct that
// lets the goroutine observe termination and lets a joiner wait for it.
// A forwarding loop with no such edge leaks past shutdown — it keeps
// running through snapshot swaps and test teardown, which is how
// "daemon drained" becomes a lie and the race detector starts firing on
// closed sockets. clued's N copies of serve pass both edges: each takes
// the serve context and is joined through a WaitGroup.
//
// The recognized edges, checked in the goroutine body and, for calls to
// same-package functions, two levels deep:
//
//   - any use of a context.Context value (ctx.Done/ctx.Err selects),
//     including passing one into the goroutine's entry call
//   - a Done call on a sync.WaitGroup (a Wait-er joins the goroutine)
//   - a Drained, Closed or IsClosed method call (the ring/queue close
//     protocol)
//   - a Load on an atomic.Bool (a stop flag)
//   - a channel receive, a range over a channel, or a select statement
//
// A goroutine that is deliberately process-lifetime (a debug listener)
// documents that with //cluevet:ignore and a reason on the go line.
var GoroutineShutdown = &Analyzer{
	Name: "goroutine-shutdown",
	Doc:  "every go statement in audited packages must be reachable from a ctx/close/Drain shutdown edge",
}

func init() { GoroutineShutdown.Run = runGoroutineShutdown }

func runGoroutineShutdown(p *Pass) {
	if p.Pkg == nil {
		return
	}
	if !p.Config.GoroutinePackages[p.Pkg.Path()] && !packageHasDirective(p.Files, directiveGoroutines) {
		return
	}
	bodies := funcDeclBodies(p)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goHasShutdownEdge(p, g, bodies) {
				p.Reportf(GoroutineShutdown, g.Pos(), Error,
					"goroutine has no shutdown edge (no context, WaitGroup.Done, close-flag Load, Drained/Closed, or channel receive): it cannot be joined or cancelled — thread a ctx or WaitGroup through it, or add //cluevet:ignore with the reason it may outlive the process")
			}
			return true
		})
	}
}

// funcDeclBodies indexes this package's function and method declarations
// by their types.Func object, for same-package call resolution.
func funcDeclBodies(p *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
				out[obj] = fn
			}
		}
	}
	return out
}

// goHasShutdownEdge reports whether the spawned goroutine can observe
// shutdown: an edge in the entry expression itself (a ctx argument), in
// the goroutine body, or in same-package callees up to two levels down.
func goHasShutdownEdge(p *Pass, g *ast.GoStmt, bodies map[*types.Func]*ast.FuncDecl) bool {
	for _, arg := range g.Call.Args {
		if isStdType(p.typeOf(arg), "context", "Context") {
			return true
		}
	}
	visited := make(map[*ast.FuncDecl]bool)
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return bodyHasShutdownEdge(p, lit.Body, 2, bodies, visited)
	}
	if fn := calleeDecl(p, g.Call, bodies); fn != nil {
		visited[fn] = true
		return bodyHasShutdownEdge(p, fn.Body, 2, bodies, visited)
	}
	// Entry point outside the package and no ctx argument: nothing ties
	// this goroutine to a shutdown protocol we can see.
	return false
}

// calleeDecl resolves a call to a same-package function or method
// declaration, or nil.
func calleeDecl(p *Pass, call *ast.CallExpr, bodies map[*types.Func]*ast.FuncDecl) *ast.FuncDecl {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return bodies[fn]
}

// bodyHasShutdownEdge scans one function body for a shutdown edge,
// following same-package calls while depth lasts.
func bodyHasShutdownEdge(p *Pass, body *ast.BlockStmt, depth int, bodies map[*types.Func]*ast.FuncDecl, visited map[*ast.FuncDecl]bool) bool {
	if body == nil {
		return false
	}
	found := false
	var calls []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := p.typeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.Ident:
			if isStdType(p.typeOf(n), "context", "Context") {
				found = true
			}
		case *ast.CallExpr:
			if shutdownCall(p, n) {
				found = true
			} else {
				calls = append(calls, n)
			}
		}
		return !found
	})
	if found || depth == 0 {
		return found
	}
	for _, call := range calls {
		fn := calleeDecl(p, call, bodies)
		if fn == nil || visited[fn] {
			continue
		}
		visited[fn] = true
		if bodyHasShutdownEdge(p, fn.Body, depth-1, bodies, visited) {
			return true
		}
	}
	return false
}

// shutdownCall recognizes the method calls that constitute a shutdown
// edge: WaitGroup.Done (or context.Context's Done), a close-protocol
// Drained/Closed/IsClosed, or a stop-flag atomic.Bool Load.
func shutdownCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := p.typeOf(sel.X)
	switch sel.Sel.Name {
	case "Done":
		return isStdType(recv, "sync", "WaitGroup") || isStdType(recv, "context", "Context")
	case "Drained", "Closed", "IsClosed":
		return true
	case "Load":
		return isStdType(recv, "sync/atomic", "Bool")
	}
	return false
}
