package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the shared interprocedural layer: a whole-module call
// graph over the loaded, type-checked packages. The graph is deliberately
// conservative (it over-approximates "may call") so the passes built on it
// — the interprocedural invgate and allocpin's hot-set join — can treat
// absence of a path as proof.
//
// Nodes are declared functions and methods (*types.Func) plus function
// literals (each FuncLit is its own node: a literal registered as an event
// callback runs on its own, not as part of its lexical parent). Edges:
//
//   - static: a direct call of a module function or method.
//   - interface: a call through an interface method; edges go to every
//     module method that could satisfy the dispatch (method-set match over
//     all named module types — a registration through a local scheduler
//     interface resolves to (*sim.Engine).AtCall this way).
//   - indirect: a call of a function-typed value; edges go to every
//     address-taken module function with an identical signature (this is
//     how `ev.call(ev.arg)` in the engine reaches the prebound callbacks,
//     and how `r.Done(at)` reaches the completion handlers).
//   - callback: a function value passed as an argument to a call — the
//     "prebound callback" registration edge (Engine.AtCall(t, fn, arg)
//     creates caller → fn). The registration callee is recorded on the
//     edge so passes can ask *which* seam a callback was handed to.
//
// Every edge also records whether the call site is dominated by an
// inv.On() guard, which is what lets invgate reason about helpers that are
// only ever entered with invariants enabled.
type CallGraph struct {
	mod *Module

	// nodes by canonical name (see nodeName); iteration uses names, so
	// everything derived from the graph is deterministic.
	nodes map[string]*CGNode
	// byFunc resolves declared functions; byLit resolves literals.
	byFunc map[*types.Func]*CGNode
	byLit  map[*ast.FuncLit]*CGNode

	// indirect holds function-typed-value call sites awaiting pass-3
	// resolution against the address-taken set.
	indirect []indirectSite
}

// CGEdgeKind classifies how a call edge was resolved.
type CGEdgeKind int

// Edge kinds, in order of decreasing resolution confidence.
const (
	// EdgeStatic is a direct call of a known function or method.
	EdgeStatic CGEdgeKind = iota
	// EdgeInterface is a call through an interface method, resolved to a
	// concrete module method by method-set matching.
	EdgeInterface
	// EdgeIndirect is a call of a function-typed value, resolved to an
	// address-taken module function with an identical signature.
	EdgeIndirect
	// EdgeCallback is a registration edge: the callee was passed as a
	// function-value argument at the call site (prebound callbacks).
	EdgeCallback
)

// String implements fmt.Stringer.
func (k CGEdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeIndirect:
		return "indirect"
	case EdgeCallback:
		return "callback"
	}
	return fmt.Sprintf("CGEdgeKind(%d)", int(k))
}

// CGEdge is one directed call (or callback-registration) edge.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Kind   CGEdgeKind
	// Pos is the call site.
	Pos token.Pos
	// Guarded reports whether the call site is dominated by an inv.On()
	// check (package form or recorder-method form).
	Guarded bool
	// Via, for EdgeCallback, is the function the callback was passed to
	// (e.g. (*sim.Engine).AtCall); nil otherwise. For EdgeInterface it is
	// the interface method the dispatch went through.
	Via *types.Func
}

// CGNode is one function, method or function literal.
type CGNode struct {
	// Name is the canonical identity: "internal/dram.dramFinishCB",
	// "(internal/sim.Engine).AtCall" (pointer receivers are spelled
	// without the star), or "<parent>$lit@line" for literals. Paths are
	// module-relative so fixture modules and the real module pin the same
	// names.
	Name string
	// Fn is the declared object; nil for function literals.
	Fn *types.Func
	// Decl is the declaration owning Fn (nil for literals).
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the defining package.
	Pkg *Package
	// Pos is the declaration position.
	Pos token.Pos
	// Sig is the node's signature (for indirect-call matching).
	Sig *types.Signature
	// Out and In are the edge lists (Out: this node calls; In: callers).
	Out []*CGEdge
	In  []*CGEdge
	// AddrTaken reports whether the function's value escapes a direct
	// call position: passed as an argument, assigned, stored in a
	// composite literal, returned, or captured any other way.
	AddrTaken bool
}

// String returns the node's canonical name.
func (n *CGNode) String() string { return n.Name }

// relPath strips the module prefix from an import path, so node names are
// module-relative ("internal/sim", not "repro/internal/sim").
func (g *CallGraph) relPath(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if path == g.mod.Path {
		return "main"
	}
	if rest, ok := strings.CutPrefix(path, g.mod.Path+"/"); ok {
		return rest
	}
	return path
}

// nodeName renders the canonical name of a declared function or method.
func (g *CallGraph) nodeName(fn *types.Func) string {
	rel := g.relPath(fn.Pkg())
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", rel, named.Obj().Name(), fn.Name())
		}
	}
	return rel + "." + fn.Name()
}

// Node resolves a declared function to its graph node (nil if the
// function is not part of the module).
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.byFunc[fn]
}

// NodeByName resolves a canonical name (see CGNode.Name) to its node.
func (g *CallGraph) NodeByName(name string) *CGNode { return g.nodes[name] }

// Nodes returns every node sorted by name (deterministic iteration).
func (g *CallGraph) Nodes() []*CGNode {
	names := make([]string, 0, len(g.nodes))
	for name := range g.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*CGNode, len(names))
	for i, name := range names {
		out[i] = g.nodes[name]
	}
	return out
}

// Reachable computes the set of nodes reachable from roots over edges
// admitted by follow (nil follows every edge). Roots themselves are in
// the result. Traversal order is deterministic (name-sorted worklist) so
// anything derived from the result — including diagnostics — is stable.
func (g *CallGraph) Reachable(roots []*CGNode, follow func(*CGEdge) bool) map[*CGNode]bool {
	seen := make(map[*CGNode]bool)
	var queue []*CGNode
	push := func(n *CGNode) {
		if n != nil && !seen[n] {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	sorted := append([]*CGNode(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, r := range sorted {
		push(r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if follow == nil || follow(e) {
				push(e.Callee)
			}
		}
	}
	return seen
}

// PathFrom returns a name-chain from one of roots to target following
// admitted edges (inclusive of both ends), or nil if unreachable. BFS over
// name-sorted adjacency keeps the reported chain deterministic and short.
func (g *CallGraph) PathFrom(roots []*CGNode, target *CGNode, follow func(*CGEdge) bool) []string {
	parent := make(map[*CGNode]*CGNode)
	seen := make(map[*CGNode]bool)
	var queue []*CGNode
	sorted := append([]*CGNode(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, r := range sorted {
		if !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == target {
			var rev []string
			for at := n; at != nil; at = parent[at] {
				rev = append(rev, at.Name)
			}
			chain := make([]string, len(rev))
			for i := range rev {
				chain[i] = rev[len(rev)-1-i]
			}
			return chain
		}
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if e.Callee != nil && !seen[e.Callee] {
				seen[e.Callee] = true
				parent[e.Callee] = n
				queue = append(queue, e.Callee)
			}
		}
	}
	return nil
}

// Body returns the node's function body (nil for synthetic nodes).
func (n *CGNode) Body() *ast.BlockStmt {
	switch {
	case n.Lit != nil:
		return n.Lit.Body
	case n.Decl != nil:
		return n.Decl.Body
	}
	return nil
}

// enclosingNode maps the innermost enclosing function of a walk stack to
// its graph node (nil for package-level initializer expressions).
func (g *CallGraph) enclosingNode(pkg *Package, stack []ast.Node) *CGNode {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return g.byLit[f]
		case *ast.FuncDecl:
			if fn, _ := pkg.Info.Defs[f.Name].(*types.Func); fn != nil {
				return g.byFunc[fn]
			}
			return nil
		}
	}
	return nil
}

// buildCallGraph constructs the module call graph. It is built once per
// driver run and shared by every interprocedural pass.
func buildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		mod:    mod,
		nodes:  make(map[string]*CGNode),
		byFunc: make(map[*types.Func]*CGNode),
		byLit:  make(map[*ast.FuncLit]*CGNode),
	}

	// Pass 1: declare a node for every function, method and literal.
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.addFuncNode(fn, pkg).Decl = fd
			}
		}
	}
	// Literals get nodes while walking bodies in pass 2 (they need their
	// enclosing node's name).

	// Pass 2: edges. Each file is walked with an enclosing-function stack
	// so every call or function-value use is attributed to the node whose
	// body it sits in.
	for _, pkg := range mod.Pkgs {
		b := &cgBuilder{g: g, pkg: pkg, guards: collectGuardVars(pkg)}
		for _, f := range pkg.Files {
			b.file(f)
		}
	}

	// Pass 3: indirect-call resolution. Calls of function-typed values
	// resolve to every address-taken node with an identical signature.
	g.resolveIndirect()
	return g
}

// addFuncNode declares (or returns) the node for fn.
func (g *CallGraph) addFuncNode(fn *types.Func, pkg *Package) *CGNode {
	if n := g.byFunc[fn]; n != nil {
		return n
	}
	sig, _ := fn.Type().(*types.Signature)
	n := &CGNode{Name: g.nodeName(fn), Fn: fn, Pkg: pkg, Pos: fn.Pos(), Sig: sig}
	g.nodes[n.Name] = n
	g.byFunc[fn] = n
	return n
}

// addLitNode declares the node for a function literal inside parent.
func (g *CallGraph) addLitNode(lit *ast.FuncLit, parent *CGNode, pkg *Package) *CGNode {
	if n := g.byLit[lit]; n != nil {
		return n
	}
	line := g.mod.Fset.Position(lit.Pos()).Line
	base := "<pkg>"
	if parent != nil {
		base = parent.Name
	}
	name := fmt.Sprintf("%s$lit@%d", base, line)
	// Two literals on one line (rare): disambiguate by column.
	if _, taken := g.nodes[name]; taken {
		name = fmt.Sprintf("%s$lit@%d:%d", base, line, g.mod.Fset.Position(lit.Pos()).Column)
	}
	sig, _ := pkg.Info.Types[lit].Type.(*types.Signature)
	n := &CGNode{Name: name, Lit: lit, Pkg: pkg, Pos: lit.Pos(), Sig: sig}
	g.nodes[name] = n
	g.byLit[lit] = n
	return n
}

// addEdge records a call edge caller→callee.
func (g *CallGraph) addEdge(caller, callee *CGNode, kind CGEdgeKind, pos token.Pos, guarded bool, via *types.Func) {
	if caller == nil || callee == nil {
		return
	}
	e := &CGEdge{Caller: caller, Callee: callee, Kind: kind, Pos: pos, Guarded: guarded, Via: via}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// indirectSite is a pending call of a function-typed value.
type indirectSite struct {
	caller  *CGNode
	sig     *types.Signature
	pos     token.Pos
	guarded bool
}

// cgBuilder walks one package's files, attributing calls and function-value
// uses to enclosing nodes.
type cgBuilder struct {
	g      *CallGraph
	pkg    *Package
	guards map[types.Object]bool
}

// file walks one file with an explicit ancestor stack.
func (b *cgBuilder) file(f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// Declare the literal's node eagerly so uses inside it
			// attribute correctly once the walk descends. A literal is
			// address-taken unless it sits directly in call position
			// ((func(){...})()).
			node := b.g.addLitNode(n, b.enclosing(stack), b.pkg)
			if !inCallPosition(n, stack) {
				node.AddrTaken = true
			}
		case *ast.CallExpr:
			b.call(n, stack)
		case *ast.Ident:
			b.identUse(n, stack)
		}
		stack = append(stack, n)
		return true
	})
}

// enclosing finds the node owning the innermost enclosing function body.
func (b *cgBuilder) enclosing(stack []ast.Node) *CGNode {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return b.g.addLitNode(f, nil, b.pkg) // already declared with parent
		case *ast.FuncDecl:
			if fn, _ := b.pkg.Info.Defs[f.Name].(*types.Func); fn != nil {
				return b.g.addFuncNode(fn, b.pkg)
			}
			return nil
		}
	}
	return nil
}

// call records the edges for one call expression.
func (b *cgBuilder) call(call *ast.CallExpr, stack []ast.Node) {
	caller := b.enclosing(stack)
	if caller == nil {
		// Package-level initializer expressions (var x = f()): attribute
		// to a synthetic per-package init node so reachability from roots
		// never has to wonder about them (they run before any event).
		caller = b.pkgInitNode()
	}
	guarded := guardedByOn(b.pkg.Info, b.guards, stack)
	info := b.pkg.Info

	// Direct call of a literal: (func(){...})().
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		b.g.addEdge(caller, b.g.addLitNode(lit, caller, b.pkg), EdgeStatic, call.Pos(), guarded, nil)
		b.callbackArgs(caller, call, nil, guarded)
		return
	}

	fn := funcObj(info, call)
	switch {
	case fn == nil:
		// Function-typed value: conversion, field, local, parameter …
		// Resolved against the addr-taken set in pass 3. Type conversions
		// (T(x)) also land here; they have no signature and are dropped.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsValue() {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				b.pendingIndirect(caller, sig, call, guarded)
			}
		}
		b.callbackArgs(caller, call, nil, guarded)
	case isInterfaceMethod(fn):
		// Interface dispatch: edges to every module method that could
		// satisfy it.
		for _, impl := range b.g.implementers(fn) {
			b.g.addEdge(caller, impl, EdgeInterface, call.Pos(), guarded, fn)
		}
		b.callbackArgs(caller, call, fn, guarded)
	default:
		if callee := b.g.byFunc[fn]; callee != nil {
			b.g.addEdge(caller, callee, EdgeStatic, call.Pos(), guarded, nil)
		}
		b.callbackArgs(caller, call, fn, guarded)
	}
}

// pendingIndirect queues an indirect call site for pass-3 resolution.
func (b *cgBuilder) pendingIndirect(caller *CGNode, sig *types.Signature, call *ast.CallExpr, guarded bool) {
	b.g.indirect = append(b.g.indirect, indirectSite{caller: caller, sig: sig, pos: call.Pos(), guarded: guarded})
}

// callbackArgs adds registration edges for every function value passed as
// an argument: caller → callback, tagged with the receiving callee.
func (b *cgBuilder) callbackArgs(caller *CGNode, call *ast.CallExpr, via *types.Func, guarded bool) {
	for _, arg := range call.Args {
		if target := b.funcValue(arg, caller); target != nil {
			target.AddrTaken = true
			b.g.addEdge(caller, target, EdgeCallback, arg.Pos(), guarded, via)
		}
	}
}

// funcValue resolves an expression naming a module function value: a plain
// identifier, a package-qualified or method-value selector, or a literal.
// Literal arguments are declared on first sight — ast.Inspect visits the
// call before its arguments, so the byLit map alone would miss them.
func (b *cgBuilder) funcValue(e ast.Expr, caller *CGNode) *CGNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return b.g.addLitNode(e, caller, b.pkg)
	case *ast.Ident:
		if fn, _ := b.pkg.Info.Uses[e].(*types.Func); fn != nil {
			return b.g.byFunc[fn]
		}
	case *ast.SelectorExpr:
		if fn, _ := b.pkg.Info.Uses[e.Sel].(*types.Func); fn != nil {
			return b.g.byFunc[fn]
		}
	}
	return nil
}

// identUse marks declared functions address-taken when their value is used
// outside the function position of a call (assignment, composite literal,
// return, argument). Every value-taking also gets a callback edge from the
// taking function, carrying the site's guard state — so unguarded-reach
// analysis sees `f := helper` the same way it sees a registration argument
// (the via tag stays nil: there is no receiving callee).
func (b *cgBuilder) identUse(id *ast.Ident, stack []ast.Node) {
	fn, _ := b.pkg.Info.Uses[id].(*types.Func)
	if fn == nil {
		return
	}
	node := b.g.byFunc[fn]
	if node == nil {
		return
	}
	if inCallPosition(id, stack) {
		return
	}
	node.AddrTaken = true
	caller := b.enclosing(stack)
	if caller == nil {
		caller = b.pkgInitNode() // package-level initializer value use
	}
	b.g.addEdge(caller, node, EdgeCallback, id.Pos(),
		guardedByOn(b.pkg.Info, b.guards, stack), nil)
}

// inCallPosition reports whether expr (possibly wrapped in the selector or
// parens directly above it on the stack) is the Fun of an enclosing call —
// i.e. a plain invocation rather than a value use.
func inCallPosition(expr ast.Expr, stack []ast.Node) bool {
	top := expr
	i := len(stack) - 1
	for ; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.SelectorExpr:
			// Only the Sel side continues the callable expression; an
			// ident on the X side (package qualifier, receiver) is never
			// itself the called value.
			if parent.Sel != top {
				return false
			}
			top = parent
			continue
		case *ast.ParenExpr:
			top = parent
			continue
		case *ast.CallExpr:
			return ast.Unparen(parent.Fun) == ast.Unparen(top)
		}
		return false
	}
	return false
}

// pkgInitNode returns the synthetic node that owns package-level
// initializer expressions of b.pkg.
func (b *cgBuilder) pkgInitNode() *CGNode {
	name := b.g.relPath(b.pkg.Types) + ".<init>"
	if n := b.g.nodes[name]; n != nil {
		return n
	}
	n := &CGNode{Name: name, Pkg: b.pkg}
	b.g.nodes[name] = n
	return n
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// implementers finds every module method that an interface-method call
// could dispatch to: methods with the interface method's name on a named
// module type (or its pointer) that implements the whole interface.
func (g *CallGraph) implementers(im *types.Func) []*CGNode {
	sig, _ := im.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*CGNode
	seen := map[*CGNode]bool{}
	for _, pkg := range g.mod.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			var recv types.Type = named
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, im.Pkg(), im.Name())
			m, _ := obj.(*types.Func)
			if m == nil {
				continue
			}
			if node := g.byFunc[m]; node != nil && !seen[node] {
				seen[node] = true
				out = append(out, node)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// resolveIndirect adds EdgeIndirect edges from every pending
// function-typed-value call to the address-taken nodes whose signature
// matches the call's.
func (g *CallGraph) resolveIndirect() {
	if len(g.indirect) == 0 {
		return
	}
	// Candidate pool: addr-taken nodes, name-sorted for determinism.
	var pool []*CGNode
	for _, n := range g.Nodes() {
		if n.AddrTaken && n.Sig != nil {
			pool = append(pool, n)
		}
	}
	for i := range g.indirect {
		site := &g.indirect[i]
		for _, cand := range pool {
			if types.Identical(site.sig, stripRecv(cand.Sig)) {
				g.addEdge(site.caller, cand, EdgeIndirect, site.pos, site.guarded, nil)
			}
		}
	}
	g.indirect = nil
}

// stripRecv returns the receiver-free view of a signature, so a method
// value's signature compares equal to the function type it is used as.
func stripRecv(sig *types.Signature) *types.Signature {
	if sig == nil || sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}
