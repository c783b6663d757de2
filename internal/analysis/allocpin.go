package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// allocpin turns AllocsPerRun regressions into lint findings: it joins the
// compiler's escape analysis (-gcflags=-m, see escapes.go) against the
// call graph and flags every heap allocation — escaping locals, escaping
// closures, interface boxing — inside a function transitively reachable
// from the pinned 0-alloc hot paths. The hot set is:
//
//   - every prebound event callback: a function value registered through
//     Engine.AtCall/AfterCall (including registrations through an
//     interface the engine satisfies);
//   - every bindHot method (the warm-Reset rebinding path measured inside
//     the AllocsPerRun loops);
//   - the pinned hotRootPins symbols (metrics.Hist.Observe).
//
// Allocations that cannot run on the steady-state path are exempt: code
// dominated by an inv.On() guard, arguments of panic and of inv.Failf /
// inv.Fail (both are terminal cold paths), the allocpinCold binding-time
// table, and anything behind //lint:ignore allocpin.
type allocpin struct{}

func (allocpin) name() string { return "allocpin" }

// hotRootPins names additional hot roots (module-relative node names)
// that are pinned by AllocsPerRun-style tests without being event
// callbacks. Each entry records which pin it mirrors.
var hotRootPins = map[string]string{
	"(internal/metrics.Hist).Observe": "0-alloc pinned by TestObserveAllocFree",
}

// allocpinCold exempts symbols whose allocations happen at binding time,
// not per event: the stats cell accessors allocate a cell on first use
// and return the cached cell on the warm path the pins measure.
var allocpinCold = map[string]string{
	"(internal/stats.Set).CounterRef": "allocates the cell once; warm lookups return the cached cell",
	"(internal/stats.Set).AccumRef":   "allocates the cell once; warm lookups return the cached cell",
	"(internal/stats.Set).HistRef":    "allocates the cell once; warm lookups return the cached cell",
	// The name-keyed convenience forms inline the *Ref accessors, so their
	// first-touch cell allocation surfaces at every Inc/Add/Observe call
	// site. Warm cells are cached; the pins measure the cached path.
	"(internal/stats.Set).Add":     "inlines CounterRef; the cell allocation is first-touch only",
	"(internal/stats.Set).Inc":     "inlines CounterRef; the cell allocation is first-touch only",
	"(internal/stats.Set).Observe": "inlines AccumRef; the cell allocation is first-touch only",
	// Pool refill accessors: they allocate only when the free list is
	// empty, and the pins ramp to the high-water mark before measuring.
	"(internal/tsim.core).getMiss":     "coreMiss pool refill; steady state recycles via putMiss",
	"(internal/tsim.l2Ctl).getReq":     "readReq pool refill; steady state recycles via putReq",
	"(internal/tsim.Sim).box":          "u64box pool refill; steady state recycles via unbox",
	"(internal/obs.Tracer).StartReq":   "Req freelist refill; TestTracedWithHistogramsSteadyStateZeroAllocs ramps the pool first",
	"(internal/obs.Tracer).bindHists":  "one-time lazy histogram-cell binding on the first aggregate",
	"(internal/obs.laneAlloc).acquire": "lane slot map grows to its high-water mark, then slots are reused",
}

// allocpinColdPrefix exempts whole types by node-name prefix, for sinks
// that are statically reachable from the hot path but nil unless an
// explicit diagnostic mode turns them on, or whole subsystems whose
// allocation budget is pinned by a different contract than the
// cache-resident 0-alloc loop.
var allocpinColdPrefix = map[string]string{
	"(internal/obs.chromeWriter).": "chrome export sink is nil unless a trace dump is requested; the pinned traced path never enters it",
	// The memory-controller miss leg allocates per DRAM-level transient
	// (pending lists, metadata-fetch waiters, continuation closures). The
	// cache-resident AllocsPerRun pins never enter it; its budget is the
	// baseline-relative bound in TestCounterFreeModesAddNoAllocsOverBaseline.
	"(internal/tsim.mcCtl).": "per-DRAM-transient miss leg; bounded by TestCounterFreeModesAddNoAllocsOverBaseline, not the cache-resident 0-alloc pin",
}

// allocpinColdRoots excludes registered callbacks from the hot-root set
// when their firing rate is epochal, not per-event — the AllocsPerRun
// pins never observe them.
var allocpinColdRoots = map[string]string{
	"internal/mc.overflowPumpCB": "counter-overflow repair pump; fires on rare overflow epochs, not per memory event",
}

// allocCold reports whether a node is exempt from hot traversal.
func allocCold(name string) bool {
	if allocpinCold[name] != "" {
		return true
	}
	for p := range allocpinColdPrefix {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func (a allocpin) runModule(ctx *context) {
	g := ctx.graph
	roots := hotRoots(g)
	if len(roots) == 0 || ctx.escapes == nil {
		return
	}
	follow := func(e *CGEdge) bool {
		if e.Guarded || e.Callee == nil {
			return false // inv-guarded edges are debug-run cold paths
		}
		if e.Kind == EdgeIndirect {
			// Indirect edges match by signature alone, which drags every
			// func(Time)-shaped symbol into the hot set. A function value
			// can only be invoked after it was bound somewhere, and the
			// binding produced a callback edge from the binding function
			// — so continuations bound on the hot path are still covered.
			return false
		}
		if allocCold(e.Callee.Name) {
			return false
		}
		if e.Callee.Pkg != nil && pathIs(e.Callee.Pkg.Path, "internal/inv") {
			return false // Failf/Fail bodies only run when a check fired
		}
		return true
	}
	hot := g.Reachable(roots, follow)

	// Index every function body by file so each escape fact lands on its
	// innermost enclosing node.
	files := make(map[string][]bodySpan)
	for _, n := range g.Nodes() {
		var first, last ast.Node
		switch {
		case n.Decl != nil:
			first, last = n.Decl, n.Decl
		case n.Lit != nil:
			first, last = n.Lit, n.Lit
		default:
			continue
		}
		p := ctx.mod.Fset.Position(first.Pos())
		files[p.Filename] = append(files[p.Filename],
			bodySpan{start: p.Line, end: ctx.mod.Fset.Position(last.End()).Line, n: n})
	}
	cold := coldRegions(ctx)

	var names []string
	for file := range files {
		names = append(names, file)
	}
	sort.Strings(names)
	for _, file := range names {
		spans := files[file]
		for _, fact := range ctx.escapes.factsIn(file) {
			n := attribute(spans, fact)
			if n == nil || !hot[n] || n.Pkg == nil || !matchAny(n.Pkg.Rel, ctx.patterns) {
				continue
			}
			// bindHot bodies are the designated binding-time allocators:
			// cell accessors inline into them, so their facts are the
			// binding allocations the pins already tolerate cold. The
			// allocpinCold symbols' own bodies are likewise the documented
			// refill/first-touch allocators.
			if strings.HasSuffix(n.Name, ".bindHot") || allocCold(n.Name) {
				continue
			}
			if inLineRanges(cold[file], fact.Line) {
				continue
			}
			path := strings.Join(g.PathFrom(roots, n, follow), " -> ")
			ctx.reportAt("allocpin", file, fact.Line,
				"heap allocation on the pinned 0-alloc hot path: %s (in %s; path: %s) — hoist it to binding time, pool it, or annotate why it cannot run per-event",
				fact.Msg, n.Name, path)
		}
	}
}

// bodySpan is one function body's line extent within a file.
type bodySpan struct {
	start, end int
	n          *CGNode
}

// attribute finds the node whose body owns a fact: the innermost span
// containing the line. A "func literal escapes to heap" fact sits on the
// literal's own first line, but the allocation belongs to the function
// that builds the closure, so it re-attributes one level out.
func attribute(spans []bodySpan, fact escapeFact) *CGNode {
	pick := func(skip *CGNode) *CGNode {
		var best *CGNode
		bestSize := int(^uint(0) >> 1)
		for _, s := range spans {
			if s.n == skip || fact.Line < s.start || fact.Line > s.end {
				continue
			}
			if size := s.end - s.start; size < bestSize ||
				(size == bestSize && best != nil && s.n.Name < best.Name) {
				best, bestSize = s.n, size
			}
		}
		return best
	}
	n := pick(nil)
	if n != nil && n.Lit != nil && strings.Contains(fact.Msg, "func literal") {
		if outer := pick(n); outer != nil {
			return outer
		}
	}
	return n
}

// lineRange is one [from, to] line span.
type lineRange struct{ from, to int }

func inLineRanges(rs []lineRange, line int) bool {
	for _, r := range rs {
		if line >= r.from && line <= r.to {
			return true
		}
	}
	return false
}

// coldRegions collects, per file, the line spans whose allocation facts
// do not count against the steady-state hot path: bodies of
// inv.On()-guarded ifs; the full extent of panic / inv.Failf / inv.Fail
// calls (argument evaluation included — both forms are terminal); and
// call sites of allocpinCold symbols, because the compiler inlines those
// accessors and re-attributes their first-touch allocation to the caller's
// line.
func coldRegions(ctx *context) map[string][]lineRange {
	out := make(map[string][]lineRange)
	add := func(n ast.Node) {
		p := ctx.mod.Fset.Position(n.Pos())
		out[p.Filename] = append(out[p.Filename],
			lineRange{from: p.Line, to: ctx.mod.Fset.Position(n.End()).Line})
	}
	for _, pkg := range ctx.mod.Pkgs {
		info := pkg.Info
		guards := collectGuardVars(pkg)
		walkStack(pkg, func(n ast.Node, _ []ast.Node) {
			switch n := n.(type) {
			case *ast.IfStmt:
				if assertsOn(info, guards, n.Cond) {
					add(n.Body)
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
					add(n)
					return
				}
				fn := funcObj(info, n)
				if isInvFail(fn) {
					add(n)
					return
				}
				if fn != nil && allocCold(ctx.graph.nodeName(fn)) {
					add(n)
				}
			}
		})
	}
	return out
}

// hotRoots collects the pinned-hot-path entry points.
func hotRoots(g *CallGraph) []*CGNode {
	var roots []*CGNode
	for _, n := range g.Nodes() {
		if allocpinColdRoots[n.Name] != "" {
			continue
		}
		if strings.HasSuffix(n.Name, ".bindHot") || hotRootPins[n.Name] != "" {
			roots = append(roots, n)
			continue
		}
		for _, e := range n.In {
			if e.Kind == EdgeCallback && isHotReg(g, e.Via) {
				roots = append(roots, n)
				break
			}
		}
	}
	return roots
}

// isHotReg reports whether via registers a prebound steady-state callback.
func isHotReg(g *CallGraph, via *types.Func) bool {
	if via == nil {
		return false
	}
	if isEventReg(via) {
		return true
	}
	if isInterfaceMethod(via) {
		for _, impl := range g.implementers(via) {
			if impl.Fn != nil && isEventReg(impl.Fn) {
				return true
			}
		}
	}
	return false
}

// isEventReg reports whether fn is a prebound-callback scheduling method:
// the fn(any)+arg forms on Engine. The closure forms (At/After/Every) are
// setup-time conveniences, not per-event paths, and are deliberately not
// hot roots.
func isEventReg(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !pathIs(fn.Pkg().Path(), "internal/sim") || receiverName(fn) != "Engine" {
		return false
	}
	return fn.Name() == "AtCall" || fn.Name() == "AfterCall"
}

// receiverName returns the named type of fn's receiver ("" for plain
// functions and interface methods).
func receiverName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
