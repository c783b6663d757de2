// Package allocbad pins the allocpin positives: heap allocations inside
// prebound event callbacks — escaping structs, interface boxing, moved
// locals, escaping closures — including the interprocedural and
// registered-literal variants.
package allocbad

import "fixture/internal/sim"

// sink and friends force the allocations below to escape.
var (
	sink   any
	sinkFn func()
	last   *int64
)

// payload is the per-event transient the positives allocate.
type payload struct {
	a, b, c int64
}

// Setup registers the hot callbacks.
func Setup(e *sim.Engine) {
	e.AtCall(0, reqCB, nil)
	e.AfterCall(0, boxCB, nil)
	e.AtCall(0, chainCB, nil)
	e.AtCall(0, closureCB, nil)
	e.AtCall(0, statCB, nil)
}

// SetupInline registers a per-event literal that itself allocates: the
// finding lands inside the literal (its own graph node). The literal
// escaping at registration time is charged to SetupInline, which is not
// hot — binding-time cost, not per-event cost.
func SetupInline(e *sim.Engine) {
	e.AtCall(0, func(x any) {
		sink = new(payload)
	}, nil)
}

// reqCB allocates an escaping struct per event.
func reqCB(x any) {
	sink = &payload{}
}

// boxCB boxes a scalar into an interface per event.
func boxCB(x any) {
	v := int64(2)
	sink = v * 2
}

// chainCB is clean itself; its helper allocates — the finding lands in
// the helper with the call path in the diagnostic.
func chainCB(x any) {
	grow()
}

func grow() {
	buf := make([]int64, 9)
	sink = buf
}

// closureCB builds an escaping closure per event: the closure-capture
// acceptance case. The "func literal escapes" fact re-attributes to the
// callback that built it.
func closureCB(x any) {
	n := 0
	sinkFn = func() { n++ }
}

// statCB retains the address of a local, moving it to the heap per
// event.
func statCB(x any) {
	v := int64(1)
	last = &v
}
