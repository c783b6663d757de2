// Package inv is the runtime invariant-checking facility shared by the
// simulator components (sim, dram, cache, mc, itree, emcc). Checks are
// gated on an atomic flag so production runs pay one predictable branch
// per check site and zero allocation; verification runs (cmd/check,
// go test ./internal/check) enable the flag and collect violations instead
// of crashing mid-simulation, so one broken invariant cannot mask the rest.
//
// State lives in a Recorder, owned by whatever owns a run: the engine-scoped
// binding (sim.Engine carries one, components capture it at construction)
// keeps concurrent in-process runs fully isolated — each run's violations
// land only in its own Recorder. The package-level functions delegate to a
// process-wide default Recorder, so leaf sites that predate the refactor
// (and ad-hoc tools) remain valid; anything that can run concurrently must
// use a per-run Recorder instead.
//
// Usage at a check site, method form (preferred — r is the run's recorder,
// captured from the engine at construction):
//
//	if r.On() && start < enqueued {
//		r.Failf("dram", "request issued %d ps before enqueue", enqueued-start)
//	}
//
// The condition and the Failf arguments are only evaluated when checking is
// enabled, keeping the disabled path free of fmt traffic. The invgate lint
// pass (internal/analysis) enforces the discipline for both the method and
// the package-level form.
package inv

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Violation is one recorded invariant failure.
type Violation struct {
	// Component labels the subsystem that detected the failure
	// ("sim", "dram", "cache", "mc", "itree", "emcc", ...).
	Component string
	// Message describes the violated invariant.
	Message string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Component + ": " + v.Message }

// maxRecorded caps stored violations; beyond it only the total count grows
// (a systematically broken invariant would otherwise flood memory).
const maxRecorded = 256

// Recorder holds the invariant-checking state for one run. The zero value
// is ready to use (checking disabled, nothing recorded). A Recorder is safe
// for concurrent use: every run that binds no recorder of its own shares
// the process-wide default.
type Recorder struct {
	enabled atomic.Bool
	total   atomic.Int64

	mu   sync.Mutex
	vios []Violation
}

// NewRecorder returns a fresh, disabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// std is the process-wide default recorder the package-level functions
// delegate to.
var std = NewRecorder()

// Default returns the process-wide default recorder — the one the
// package-level Enable/On/Failf operate on.
func Default() *Recorder { return std }

// Or returns r, or the default recorder when r is nil. Constructors use it
// to normalise an optional recorder argument so check sites never need a
// nil test.
func Or(r *Recorder) *Recorder {
	if r == nil {
		return std
	}
	return r
}

// Enable switches invariant checking on or off. Enabling also clears any
// previously recorded violations so a run starts from a clean slate.
func (r *Recorder) Enable(on bool) {
	if on {
		r.Reset()
	}
	r.enabled.Store(on)
}

// On reports whether invariant checking is active. Check sites call this
// first so the disabled path costs one atomic load.
func (r *Recorder) On() bool { return r.enabled.Load() }

// Failf records an invariant violation. It never panics: simulation
// continues so a single failure cannot hide later, independent ones.
func (r *Recorder) Failf(component, format string, args ...interface{}) {
	r.total.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.vios) < maxRecorded {
		r.vios = append(r.vios, Violation{Component: component, Message: fmt.Sprintf(format, args...)})
	}
}

// Fail records an invariant violation with a fixed message. Like Failf it
// never panics; use it when there is nothing to format.
func (r *Recorder) Fail(component, message string) {
	r.total.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.vios) < maxRecorded {
		r.vios = append(r.vios, Violation{Component: component, Message: message})
	}
}

// Check records a violation when cond is false. Prefer the `if r.On()`
// form at hot sites; Check is for cold paths where brevity wins.
func (r *Recorder) Check(cond bool, component, format string, args ...interface{}) {
	if !cond {
		r.Failf(component, format, args...)
	}
}

// Violations returns a copy of the recorded violations (at most the first
// maxRecorded; Count reports the true total).
func (r *Recorder) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.vios...)
}

// Count reports the total number of violations since the last Reset,
// including any dropped beyond the recording cap.
func (r *Recorder) Count() int64 { return r.total.Load() }

// Reset clears recorded violations and the counter.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.vios = nil
	r.mu.Unlock()
	r.total.Store(0)
}

// Enable switches the default recorder's checking on or off.
func Enable(on bool) { std.Enable(on) }

// On reports whether the default recorder's checking is active.
func On() bool { return std.On() }

// Failf records an invariant violation on the default recorder.
func Failf(component, format string, args ...interface{}) { std.Failf(component, format, args...) }

// Fail records a fixed-message violation on the default recorder.
func Fail(component, message string) { std.Fail(component, message) }

// Check records a violation on the default recorder when cond is false.
func Check(cond bool, component, format string, args ...interface{}) {
	std.Check(cond, component, format, args...)
}

// Violations returns the default recorder's recorded violations.
func Violations() []Violation { return std.Violations() }

// Count reports the default recorder's total violation count.
func Count() int64 { return std.Count() }

// Reset clears the default recorder.
func Reset() { std.Reset() }
