// Package stats collects the counters, accumulators and histograms that the
// evaluation figures are computed from. Every component in the simulator
// writes into a shared *Set; the figure harness reads the named metrics out
// at the end of a run.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Set is a named bag of metrics. The zero value is not usable; call NewSet.
//
// Counters are stored as heap cells (map[string]*int64) so hot paths can
// bind a cell once with CounterRef and bump it with a single pointer
// dereference instead of a map lookup per event; AccumRef does the same
// for accumulators. Cells bound by refs but never moved off zero are
// invisible to Snapshot/Names/Dump, so eager binding never perturbs
// golden output.
type Set struct {
	counters map[string]*int64
	accums   map[string]*Accumulator
	hists    map[string]*metrics.Hist
	prov     map[string]string
}

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*int64),
		accums:   make(map[string]*Accumulator),
		hists:    make(map[string]*metrics.Hist),
	}
}

// Reset clears every metric while keeping the set's identity, so
// components holding the pointer keep recording. Used at the
// warmup-to-measurement boundary. Cells handed out by CounterRef/AccumRef
// before a Reset go stale (they keep counting into the discarded
// generation); components caching refs must re-bind after Reset.
func (s *Set) Reset() {
	s.counters = make(map[string]*int64)
	s.accums = make(map[string]*Accumulator)
	s.hists = make(map[string]*metrics.Hist)
}

// SetProvenance attaches a run-provenance manifest (see internal/prov) to
// the set; it rides along into every Snapshot. Reset does not clear it —
// provenance describes the run, not the measurement window.
func (s *Set) SetProvenance(m map[string]string) { s.prov = m }

// Add increments the named counter by delta.
func (s *Set) Add(name string, delta int64) { *s.CounterRef(name) += delta }

// Inc increments the named counter by one.
func (s *Set) Inc(name string) { *s.CounterRef(name)++ }

// Counter reports the value of the named counter (zero if never touched).
func (s *Set) Counter(name string) int64 {
	if c := s.counters[name]; c != nil {
		return *c
	}
	return 0
}

// CounterRef returns the named counter's cell, creating it at zero. Hot
// paths bind the cell once and bump through the pointer; the cell is valid
// until the next Reset.
func (s *Set) CounterRef(name string) *int64 {
	c := s.counters[name]
	if c == nil {
		c = new(int64)
		s.counters[name] = c
	}
	return c
}

// Observe records a sample into the named accumulator.
func (s *Set) Observe(name string, v float64) { s.AccumRef(name).Observe(v) }

// AccumRef returns the named accumulator, creating an empty one. Hot paths
// bind it once and Observe through the pointer; it is valid until the next
// Reset. An accumulator that never receives a sample stays invisible to
// Snapshot and Names.
func (s *Set) AccumRef(name string) *Accumulator {
	a := s.accums[name]
	if a == nil {
		a = &Accumulator{Min: math.Inf(1), Max: math.Inf(-1)}
		s.accums[name] = a
	}
	return a
}

// Accum returns the named accumulator, or an empty one if never observed.
func (s *Set) Accum(name string) *Accumulator {
	if a := s.accums[name]; a != nil {
		return a
	}
	return &Accumulator{}
}

// HistRef returns the named histogram's cell, creating an empty one. Hot
// paths bind the cell once and Observe through the pointer (the same
// discipline as CounterRef/AccumRef); it is valid until the next Reset. A
// histogram that never receives a sample stays invisible to Snapshot and
// Names, so eager binding never perturbs golden output.
func (s *Set) HistRef(name string) *metrics.Hist {
	h := s.hists[name]
	if h == nil {
		h = &metrics.Hist{}
		s.hists[name] = h
	}
	return h
}

// Hist returns the named histogram, or an empty one if never observed.
func (s *Set) Hist(name string) *metrics.Hist {
	if h := s.hists[name]; h != nil {
		return h
	}
	return &metrics.Hist{}
}

// Names reports every metric name present, sorted, for debug dumps.
// Ref-bound cells that never recorded anything are omitted, matching
// Snapshot.
func (s *Set) Names() []string {
	var names []string
	for k, c := range s.counters {
		if *c != 0 {
			names = append(names, "counter/"+k)
		}
	}
	for k, a := range s.accums {
		if a.Count != 0 {
			names = append(names, "accum/"+k)
		}
	}
	for k, h := range s.hists {
		if h.Count() != 0 {
			names = append(names, "hist/"+k)
		}
	}
	sort.Strings(names)
	return names
}

// Dump formats every metric for human inspection. It goes through
// Snapshot, so a live Set and its round-tripped snapshot print
// byte-identically (cached and fresh runs are indistinguishable in logs).
func (s *Set) Dump() string { return s.Snapshot().Dump() }

// Accumulator tracks count/sum/min/max of a stream of float64 samples.
type Accumulator struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Observe records one sample.
func (a *Accumulator) Observe(v float64) {
	a.Count++
	a.Sum += v
	if v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
}

// Mean reports the sample mean, or zero with no samples.
func (a *Accumulator) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// VisitCounters calls fn for every non-zero counter in ascending name
// order. Together with VisitHists it makes Set a metrics.Source, so a
// flight recorder can sample any Set without the metrics package knowing
// about this one.
func (s *Set) VisitCounters(fn func(name string, v int64)) {
	names := make([]string, 0, len(s.counters))
	for k, c := range s.counters {
		if *c != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fn(k, *s.counters[k])
	}
}

// VisitHists calls fn for every non-empty histogram in ascending name
// order (the other half of the metrics.Source contract).
func (s *Set) VisitHists(fn func(name string, h *metrics.Hist)) {
	names := make([]string, 0, len(s.hists))
	for k, h := range s.hists {
		if h.Count() != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fn(k, s.hists[k])
	}
}

// GeoMean computes the geometric mean of strictly positive values; zero or
// negative inputs are skipped (matching how the paper reports Fig 22).
func GeoMean(vs []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean computes the arithmetic mean of vs (zero for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Snapshot is a JSON-marshalable view of a Set.
type Snapshot struct {
	// Provenance is the run manifest (internal/prov), when the owning
	// tool attached one. Golden comparisons mask its volatile keys.
	Provenance map[string]string       `json:"provenance,omitempty"`
	Counters   map[string]int64        `json:"counters"`
	Accums     map[string]AccumSummary `json:"accumulators"`
	// Hists holds the log-bucketed latency histograms (internal/metrics),
	// trailing-zero-trimmed. Absent entirely when the run recorded none,
	// so snapshots from histogram-free runs keep their historical shape.
	Hists map[string]metrics.HistSnapshot `json:"histograms,omitempty"`
}

// AccumSummary is the JSON view of an Accumulator.
type AccumSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// StableJSON renders the snapshot as indented JSON. encoding/json sorts
// map keys, so two equal snapshots always produce byte-identical output —
// the determinism tests and golden files rely on that.
func (s Snapshot) StableJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Counter reports the named counter captured in the snapshot (zero if
// never touched), mirroring Set.Counter so the figure harness can read
// live and cached outcomes through one accessor.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// AccumMean reports the mean of the named accumulator captured in the
// snapshot (zero if never observed), mirroring Set.Accum(name).Mean().
func (s Snapshot) AccumMean(name string) float64 { return s.Accums[name].Mean }

// Hist reports the named histogram captured in the snapshot (an empty
// one if never observed), mirroring Set.Hist for cached outcomes.
func (s Snapshot) Hist(name string) metrics.HistSnapshot { return s.Hists[name] }

// Dump formats the snapshot for human inspection, one line per metric
// sorted by prefixed name (the historical Set.Dump layout).
func (s Snapshot) Dump() string {
	names := make([]string, 0, len(s.Counters)+len(s.Accums)+len(s.Hists))
	for k := range s.Counters {
		names = append(names, "counter/"+k)
	}
	for k := range s.Accums {
		names = append(names, "accum/"+k)
	}
	for k := range s.Hists {
		names = append(names, "hist/"+k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "counter/"):
			fmt.Fprintf(&b, "%-52s %d\n", n, s.Counters[strings.TrimPrefix(n, "counter/")])
		case strings.HasPrefix(n, "accum/"):
			a := s.Accums[strings.TrimPrefix(n, "accum/")]
			fmt.Fprintf(&b, "%-52s mean=%.3f n=%d min=%.3f max=%.3f\n", n, a.Mean, a.Count, a.Min, a.Max)
		case strings.HasPrefix(n, "hist/"):
			h := s.Hists[strings.TrimPrefix(n, "hist/")]
			fmt.Fprintf(&b, "%-52s n=%d p50=%d p95=%d p99=%d max=%d\n",
				n, h.Count, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
		}
	}
	return b.String()
}

// Snapshot captures the current metrics for serialization.
func (s *Set) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: make(map[string]int64, len(s.counters)),
		Accums:   make(map[string]AccumSummary, len(s.accums)),
	}
	// Zero-valued cells exist only through CounterRef/AccumRef binding;
	// no recording path leaves a zero behind, so skipping them keeps
	// snapshots byte-identical to the pre-ref world (and keeps the ±Inf
	// sentinels of an unobserved accumulator out of the JSON).
	for k, v := range s.counters {
		if *v != 0 {
			snap.Counters[k] = *v
		}
	}
	for k, a := range s.accums {
		if a.Count != 0 {
			snap.Accums[k] = AccumSummary{Count: a.Count, Mean: a.Mean(), Min: a.Min, Max: a.Max}
		}
	}
	for k, h := range s.hists {
		if h.Count() != 0 {
			if snap.Hists == nil {
				snap.Hists = make(map[string]metrics.HistSnapshot)
			}
			snap.Hists[k] = h.Snapshot()
		}
	}
	if s.prov != nil {
		snap.Provenance = make(map[string]string, len(s.prov))
		for k, v := range s.prov {
			snap.Provenance[k] = v
		}
	}
	return snap
}
