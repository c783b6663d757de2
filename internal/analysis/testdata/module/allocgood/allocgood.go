// Package allocgood pins the allocpin negatives: allocations the pinned
// hot path tolerates — binding-time (bindHot), guard-gated, terminal
// (panic), first-touch inside pinned-cold accessors — plus code no hot
// root reaches.
package allocgood

import (
	"fixture/internal/inv"
	"fixture/internal/sim"
	"fixture/internal/stats"
)

var sink any

// ctl binds its stats cell once and bumps through the pointer.
type ctl struct {
	set  *stats.Set
	cell *int64
}

// Setup binds and registers the negative-case callbacks.
func Setup(e *sim.Engine, s *stats.Set) {
	c := &ctl{set: s}
	c.bindHot()
	e.AtCall(0, c.tickCB, nil)
	e.AtCall(0, guardedCB, nil)
	e.AtCall(0, deadCB, nil)
	e.AtCall(0, lazyCB, c)
}

// bindHot allocates at binding time: the bindHot contract exempts its
// body even though tickCB makes it part of the measured warm path.
func (c *ctl) bindHot() {
	c.cell = c.set.CounterRef("fixture/good")
	sink = &ctl{}
}

// tickCB bumps the bound cell: genuinely 0-alloc.
func (c *ctl) tickCB(x any) {
	*c.cell++
}

// guardedCB allocates only under the invariant guard — debug-run cost,
// exempt as a cold region.
func guardedCB(x any) {
	if inv.On() {
		sink = &ctl{}
	}
}

// deadCB allocates only in the panic argument — terminal, exempt.
func deadCB(x any) {
	if x != nil {
		panic(&ctl{})
	}
}

// lazyCB uses the name-keyed stats form whose inlined first-touch cell
// allocation is pinned cold (allocpinCold): exempt at the call line.
func lazyCB(x any) {
	c := x.(*ctl)
	c.set.Inc("fixture/good")
}

// coldPath is unreachable from any hot root: its allocation is fine.
func coldPath() {
	sink = make([]int64, 4)
}

// sched is a local scheduling seam that *sim.Engine satisfies: a callback
// registered through it is a hot root exactly like a direct AtCall.
type sched interface {
	AtCall(t sim.Time, fn func(any), arg any)
}

// SetupSeam registers seamCB through the interface seam.
func SetupSeam(s sched) {
	s.AtCall(0, seamCB, nil)
}

// seamCB bumps a counter through its argument: genuinely 0-alloc.
func seamCB(x any) {
	*x.(*int64)++
}
