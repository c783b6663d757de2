// Package check is the verification harness that cross-validates the
// repository's three independent models of secure memory:
//
//   - differential tests replay one recorded trace through the functional
//     simulator (fsim) and the timing simulator (tsim) and require their
//     trace-driven classification counts to agree, and drive the functional
//     secure memory (secmem) and the timing layer's metadata authority
//     (mc.Home) with identical write sequences and require their counter
//     state to agree exactly;
//   - metamorphic properties perturb configurations and require the
//     responses to move the right way (more AES latency can't speed the
//     machine up, more DRAM channels can't add queuing delay, EMCC can't
//     lose its own analytic timelines);
//   - invariant runs execute both simulators with internal/inv enabled and
//     require zero recorded violations plus post-run conservation between
//     requested and performed DRAM fills.
//
// cmd/check runs everything and prints a report; `go test ./internal/check`
// runs the same pillars plus deliberately-broken inputs proving each pillar
// can fail.
package check

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Pillar labels which verification family a result belongs to.
type Pillar string

// The three pillars.
const (
	PillarDifferential Pillar = "differential"
	PillarMetamorphic  Pillar = "metamorphic"
	PillarInvariant    Pillar = "invariant"
)

// Result is one named check's outcome.
type Result struct {
	Pillar Pillar
	Name   string
	Pass   bool
	Detail string
}

// String renders one report line.
func (r Result) String() string {
	mark := "PASS"
	if !r.Pass {
		mark = "FAIL"
	}
	return fmt.Sprintf("%-4s [%-12s] %-52s %s", mark, r.Pillar, r.Name, r.Detail)
}

// Options tunes how much work the suite does.
type Options struct {
	// Seed drives trace recording and workload generation.
	Seed uint64
	// Refs is the total memory references per simulated run.
	Refs int64
	// Benchmark is the synthetic workload the differential trace records.
	Benchmark string
	// Cores is the simulated core count (cache pressure scales with it).
	Cores int
	// Quick halves the reference budget (cmd/check -quick).
	Quick bool
	// Parallel is the number of independent check units Run executes
	// concurrently (0 or 1 = serial). Every unit owns its simulators and
	// stats.Sets outright, so parallelism never changes any result — only
	// the wall-clock time (closes the ROADMAP fan-out item).
	Parallel int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 12
	}
	if o.Refs == 0 {
		o.Refs = 60_000
	}
	if o.Benchmark == "" {
		o.Benchmark = "canneal"
	}
	if o.Cores == 0 {
		o.Cores = 2
	}
	if o.Quick {
		o.Refs /= 2
	}
	return o
}

// Run executes every pillar and returns all results. Every unit —
// differential, metamorphic and invariant alike — is independent: each
// builds its own simulators, stats.Sets and inv.Recorders over a shared
// read-only trace, so all of them fan out across opt.Parallel goroutines.
// (The invariant pillar used to be pinned serial when internal/inv's
// recorder was process-global; per-run recorders removed that restriction.)
// Results land in fixed slots, so the report order — and with deterministic
// simulators, every byte of it — is identical at any parallelism.
func Run(opt Options) []Result {
	opt = opt.withDefaults()
	tr, err := recordTrace(opt)
	if err != nil {
		return []Result{failf(PillarDifferential, "record-trace", "%v", err)}
	}
	units := append(diffUnits(tr, opt), metamorphicUnits(opt)...)
	units = append(units, invariantUnits(tr, opt)...)
	slots := make([][]Result, len(units))
	workers := opt.Parallel
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, unit := range units {
		i, unit := i, unit
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			slots[i] = unit()
		}()
	}
	wg.Wait()
	var out []Result
	for _, rs := range slots {
		out = append(out, rs...)
	}
	return out
}

// Failed counts failing results.
func Failed(rs []Result) int {
	n := 0
	for _, r := range rs {
		if !r.Pass {
			n++
		}
	}
	return n
}

// recordTrace captures the differential input: a seeded synthetic workload
// serialized through internal/trace, so both simulators replay the exact
// same reference stream (and the trace codec itself is exercised).
func recordTrace(opt Options) (*trace.Trace, error) {
	var buf bytes.Buffer
	sc := workload.TestScale()
	if _, err := trace.Record(&buf, opt.Benchmark, opt.Cores, opt.Seed, opt.Refs, sc); err != nil {
		return nil, err
	}
	return trace.Read(&buf)
}

// pass/fail helpers.
func passf(p Pillar, name, format string, args ...interface{}) Result {
	return Result{Pillar: p, Name: name, Pass: true, Detail: fmt.Sprintf(format, args...)}
}

func failf(p Pillar, name, format string, args ...interface{}) Result {
	return Result{Pillar: p, Name: name, Pass: false, Detail: fmt.Sprintf(format, args...)}
}
