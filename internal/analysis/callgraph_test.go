package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

var (
	cgOnce  sync.Once
	cgGraph *CallGraph
	cgErr   error
)

// fixtureGraph loads the fixture module and builds its call graph once
// per test binary.
func fixtureGraph(t *testing.T) *CallGraph {
	t.Helper()
	cgOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("testdata", "module"))
		if err != nil {
			cgErr = err
			return
		}
		mod, err := LoadModule(root)
		if err != nil {
			cgErr = err
			return
		}
		cgGraph = buildCallGraph(mod)
	})
	if cgErr != nil {
		t.Fatal(cgErr)
	}
	return cgGraph
}

// TestCallGraphCallbackEdge pins the prebound-callback edge shape: a
// function passed to Engine.AtCall gets an EdgeCallback In edge from the
// registering function, with Via naming the registration method.
func TestCallGraphCallbackEdge(t *testing.T) {
	g := fixtureGraph(t)
	n := g.NodeByName("allocbad.reqCB")
	if n == nil {
		t.Fatal("no node allocbad.reqCB")
	}
	found := false
	for _, e := range n.In {
		if e.Kind != EdgeCallback || e.Caller == nil || e.Caller.Name != "allocbad.Setup" || e.Via == nil {
			continue
		}
		if g.nodeName(e.Via) == "(internal/sim.Engine).AtCall" {
			found = true
		}
	}
	if !found {
		t.Error("no EdgeCallback from allocbad.Setup into allocbad.reqCB via (internal/sim.Engine).AtCall")
	}
}

// TestCallGraphInterfaceDispatch pins method-set dispatch through the
// registration seam: seamCB is registered only via the local sched
// interface, which a *sim.Engine satisfies, so hotRoots must include it;
// the unregistered coldPath stays out.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := fixtureGraph(t)
	roots := map[string]bool{}
	for _, r := range hotRoots(g) {
		roots[r.Name] = true
	}
	if !roots["allocgood.seamCB"] {
		t.Errorf("hotRoots misses allocgood.seamCB (interface-seam registration); got %v", roots)
	}
	if roots["allocgood.coldPath"] {
		t.Error("hotRoots includes the unregistered allocgood.coldPath")
	}
}

// TestCallGraphCycleTermination pins termination on mutual recursion:
// reachability from cycle.Ping must close over both nodes and return.
func TestCallGraphCycleTermination(t *testing.T) {
	g := fixtureGraph(t)
	ping := g.NodeByName("cycle.Ping")
	pong := g.NodeByName("cycle.pong")
	if ping == nil || pong == nil {
		t.Fatal("cycle nodes missing")
	}
	reach := g.Reachable([]*CGNode{ping}, nil)
	if !reach[pong] || !reach[ping] {
		t.Error("reachability from cycle.Ping does not close over the cycle")
	}
	path := g.PathFrom([]*CGNode{ping}, pong, nil)
	if len(path) != 2 || path[0] != "cycle.Ping" || path[1] != "cycle.pong" {
		t.Errorf("PathFrom(Ping, pong) = %v, want [cycle.Ping cycle.pong]", path)
	}
}

// TestCallGraphHotRoots pins the allocpin root set: registered callbacks
// and the hotRootPins table seed it; binding-time helpers (.bindHot) are
// roots so their callees are covered, and pinned-cold roots stay out.
func TestCallGraphHotRoots(t *testing.T) {
	g := fixtureGraph(t)
	roots := map[string]bool{}
	for _, r := range hotRoots(g) {
		roots[r.Name] = true
	}
	for _, want := range []string{
		"(internal/metrics.Hist).Observe", // hotRootPins entry
		"allocbad.reqCB",                  // Engine.AtCall registration
		"allocbad.chainCB",                // Engine.AtCall registration
		"(allocgood.ctl).bindHot",         // .bindHot suffix
	} {
		if !roots[want] {
			t.Errorf("hotRoots misses %s", want)
		}
	}
	if roots["allocgood.coldPath"] {
		t.Error("hotRoots includes the unregistered allocgood.coldPath")
	}
}

// TestCallGraphUnguardedReach pins the interprocedural guard analysis:
// checkDeep (guarded by its only caller) is outside the unguarded set,
// checkUnsafe (reached bare through Leak) is inside it.
func TestCallGraphUnguardedReach(t *testing.T) {
	g := fixtureGraph(t)
	unguarded := g.unguardedReach()
	deep := g.NodeByName("invflow.checkDeep")
	unsafe := g.NodeByName("invflow.checkUnsafe")
	if deep == nil || unsafe == nil {
		t.Fatal("invflow nodes missing")
	}
	if unguarded[deep] {
		t.Error("checkDeep is in the unguarded set despite its only caller guarding")
	}
	if !unguarded[unsafe] {
		t.Error("checkUnsafe escaped the unguarded set despite the bare path through Leak")
	}
}
