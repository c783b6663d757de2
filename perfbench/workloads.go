package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/fsim"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// cores is the simulated core count of every scenario (Table I).
const cores = 4

// scale is the figure harness's quick scale: DefaultScale with a 2^19-vertex
// graph and 64 MB irregular footprints (24 MB of canneal per core).
func scale() workload.Scale {
	sc := workload.DefaultScale()
	sc.GraphVertices = 1 << 19
	sc.IrregularBytes = 64 << 20
	return sc
}

// scenario is one simulator run: a workload.Generator set replayed through
// one simulator under one -system design.
type scenario struct {
	sim    string // "tsim" or "fsim"
	system string // config.ApplySystem vocabulary
	bench  string
	warmup int64 // functional warmup references (all cores)
	refs   int64 // detailed references (all cores)
}

// workloads maps each benchmark workload to the scenarios it runs back to
// back. README.md records why each was chosen.
var workloads = map[string][]scenario{
	"tsim-irregular": {
		{"tsim", "emcc", "canneal", 1_000_000, 1_000_000},
		{"tsim", "morphable", "canneal", 1_000_000, 1_000_000},
	},
	"tsim-resident": {
		{"tsim", "emcc", "exchange2_s", 1_000_000, 6_000_000},
	},
	"fsim-sweep": sweep("pageRank", 1_000_000, 2_000_000),
}

// sweepSystems are all seven -system designs, in the figure harness's order.
var sweepSystems = []string{"non-secure", "mono", "sc64", "morphable", "emcc", "bipbip", "insram"}

func sweep(bench string, warmup, refs int64) []scenario {
	var out []scenario
	for _, sys := range sweepSystems {
		out = append(out, scenario{"fsim", sys, bench, warmup, refs})
	}
	return out
}

// chunk is the number of pulls between two timestamps of a scenario's
// timeline: about 50 ms of tsim, so a stall on a shared host spoils a few
// chunks instead of a whole phase.
const chunk = 1 << 14

// counter is shared by the counting wrappers of one scenario's generator
// set. It finds the warmup/detailed boundary from outside the simulator:
// both simulators pull exactly warmup references before the first detailed
// one, so the (warmup+1)-th Next call is the first detailed reference.
// It timestamps the pull stream every chunk pulls, restarting the grid at
// the boundary, so chunk k of a phase is the same simulated work in every
// run of one scenario and seed.
type counter struct {
	pulls  int64
	warmup int64
	next   int64   // pull count of the next timestamp
	marks  []stamp // at pulls 0, chunk, ..., warmup, warmup+chunk, ...
	nwarm  int     // marks taken before the boundary
	// onBoundary, when set, runs as the first detailed reference is pulled
	// (traced runs start the CPU profile there).
	onBoundary func()
}

// countingGen wraps a public workload.Generator and counts its pulls.
type countingGen struct {
	workload.Generator
	c *counter
}

func (g countingGen) Next() workload.Access {
	if c := g.c; c.pulls == c.next {
		c.mark()
	}
	g.c.pulls++
	return g.Generator.Next()
}

func (c *counter) mark() {
	c.marks = append(c.marks, now())
	if c.pulls < c.warmup {
		c.next = min(c.pulls+chunk, c.warmup)
		return
	}
	c.next = c.pulls + chunk
	if c.pulls == c.warmup {
		c.nwarm = len(c.marks) - 1
		if c.onBoundary != nil {
			c.onBoundary()
		}
	}
}

// stamp is a point on both host clocks: the wall clock, and the CPU time
// the process has used. On a VM the CPU clock leaves out the time the
// hypervisor gave this CPU to another guest.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	return stamp{time.Now(), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// timeline is a scenario's timed pieces on one clock, in seconds:
// generator construction (the RMAT graph when not cached), simulator
// construction, the functional warmup and the detailed phase in chunks of
// the counter's grid, and the stats snapshot.
type timeline struct {
	Graph, New, Snap float64
	Warm, Detail     []float64
}

// timelines builds a scenario's timeline on both clocks from the stamps
// taken before and after each piece and the counter's marks, whose first
// warmup and first detailed entries bound the two phases.
func timelines(t0, t1, t2, t3, t4 stamp, marks []stamp, nwarm int) (wall, cpu timeline) {
	spans := func(marks []stamp, end stamp) (w, c []float64) {
		for i, m := range marks {
			next := end
			if i+1 < len(marks) {
				next = marks[i+1]
			}
			w = append(w, next.wall.Sub(m.wall).Seconds())
			c = append(c, (next.cpu - m.cpu).Seconds())
		}
		return w, c
	}
	span := func(a, b stamp) (w, c float64) { return b.wall.Sub(a.wall).Seconds(), (b.cpu - a.cpu).Seconds() }
	wall.Graph, cpu.Graph = span(t0, t1)
	wall.New, cpu.New = span(t1, t2)
	wall.Snap, cpu.Snap = span(t3, t4)
	marks[0] = t2 // the first phase starts when Run is called
	wall.Warm, cpu.Warm = spans(marks[:nwarm], marks[nwarm])
	wall.Detail, cpu.Detail = spans(marks[nwarm:], t3)
	return wall, cpu
}

// result is one scenario run's measurement and outcome.
type result struct {
	System string
	Err    string `json:",omitempty"` // non-empty: the run failed
	Digest string // hash of the stats snapshot's StableJSON

	// The metrics use the CPU clock; the wall clock is printed beside them.
	CPU, Wall timeline

	Pulls    int64  // references pulled from the generators
	Detailed int64  // detailed references
	Steps    uint64 // simulated events (tsim)
	// LiveHeapMB is the Go heap still reachable after Run, the simulator
	// included.
	LiveHeapMB float64
	IPC        float64
	Counts     map[string]int64 // the snapshot's non-zero counters

	// LayerNS is CPU time per layer over the detailed phase (traced runs).
	LayerNS map[string]int64 `json:",omitempty"`
}

// hooks lets a traced run wrap the detailed phase, and lets the self-tests
// inject faults, without a second code path through run.
type hooks struct {
	// detailStart runs at the first detailed reference; detailEnd right
	// after the simulator's Run returns.
	detailStart, detailEnd func()
	// skew is added to the loads+stores the conservation check reads
	// (self-tests only: a non-zero skew must fail the run).
	skew int64
}

// run executes one scenario and checks its output. It never panics: a
// constructor error, a panic inside the simulator and a broken
// conservation law all come back as r.Err.
func (sc scenario) run(seed uint64, h hooks) (r result) {
	r.System = sc.system
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	cfg := config.Default()
	if err := config.ApplySystem(&cfg, sc.system); err != nil {
		r.Err = err.Error()
		return r
	}

	t0 := now()
	cnt := &counter{warmup: sc.warmup / cores * cores, onBoundary: h.detailStart}
	raw, err := workload.NewSet(sc.bench, cores, seed, scale())
	if err != nil {
		r.Err = err.Error()
		return r
	}
	dataBytes, err := workload.SpaceBytes(sc.bench, cores, scale())
	if err != nil {
		r.Err = err.Error()
		return r
	}
	gens := make([]workload.Generator, len(raw))
	for i, g := range raw {
		gens[i] = countingGen{g, cnt}
	}
	t1 := now()

	var snap func() *stats.Set
	var runSim func()
	switch sc.sim {
	case "tsim":
		s, err := tsim.New(&cfg, tsim.Options{
			Benchmark: sc.bench, Cores: cores, Seed: seed, Refs: sc.refs, Warmup: sc.warmup,
			Scale: scale(), Generators: gens, DataBytes: dataBytes,
		})
		if err != nil {
			r.Err = err.Error()
			return r
		}
		snap = s.Stats
		runSim = func() {
			r.IPC = s.Run().IPC
			r.Steps = s.Engine().Steps()
		}
	case "fsim":
		s, err := fsim.New(&cfg, fsim.Options{
			Benchmark: sc.bench, Cores: cores, Seed: seed, Refs: sc.refs, Warmup: sc.warmup,
			Scale: scale(), Generators: gens, DataBytes: dataBytes,
		})
		if err != nil {
			r.Err = err.Error()
			return r
		}
		snap = s.Stats
		runSim = s.Run
	default:
		r.Err = "unknown simulator " + sc.sim
		return r
	}
	t2 := now()
	runSim()
	t3 := now()
	if h.detailEnd != nil {
		h.detailEnd()
	}
	st := snap()
	ss := st.Snapshot()
	r.Digest, err = digest(ss)
	t4 := now()
	if err != nil {
		r.Err = err.Error()
		return r
	}

	r.Pulls = cnt.pulls
	r.Detailed = cnt.pulls - cnt.warmup
	if cnt.pulls <= cnt.warmup {
		r.Err = fmt.Sprintf("%d references pulled, none detailed", cnt.pulls)
		return r
	}
	r.Wall, r.CPU = timelines(t0, t1, t2, t3, t4, cnt.marks, cnt.nwarm)
	r.Counts = ss.Counters

	// The simulator's live heap with all its state, measured outside every
	// timed piece. Unlike the peak RSS it does not depend on where the GC
	// cycles landed.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.LiveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(runSim)

	// Conservation: every detailed reference is counted exactly once as a
	// load or a store, and each core replayed its full share.
	want := sc.refs / cores * cores
	got := h.skew
	if sc.sim == "tsim" {
		got += st.Counter(stats.TsimLoad) + st.Counter(stats.TsimStore)
	} else {
		got += st.Counter(stats.FsimDataRead) + st.Counter(stats.FsimDataWrite)
	}
	switch {
	case got != want:
		r.Err = fmt.Sprintf("conservation: %d loads+stores, want %d detailed references", got, want)
	case r.Detailed != want:
		r.Err = fmt.Sprintf("conservation: %d detailed references pulled, want %d", r.Detailed, want)
	}
	return r
}

// digest hashes a snapshot's canonical JSON: equal digests mean
// byte-identical snapshots.
func digest(snap stats.Snapshot) (string, error) {
	js, err := snap.StableJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:8]), nil
}

// quantity is a simulated ratio over a scenario's counters: the sum of
// num over the sum of den, or per 1k detailed references when den is nil.
type quantity struct {
	name, unit string
	num, den   []string
}

// tsimQuantities are the exact simulated counts reported beside the host
// metrics, pooled over a workload's tsim scenarios. A host-speed change
// must leave every one of them identical.
var tsimQuantities = []quantity{
	{"tsim.l2_miss_per_kref", "1/kref", []string{stats.TsimL2DataMiss}, nil},
	{"tsim.llc_miss_ratio", "ratio", []string{stats.TsimLLCDataMiss}, []string{stats.TsimLLCDataAccess}},
	{"tsim.mc_data_fill_per_kref", "1/kref", []string{stats.TsimMCDataFill}, nil},
	{"tsim.ctr_llc_hit_ratio", "ratio", []string{stats.TsimCtrLLCHit}, []string{stats.TsimCtrLLCLookup}},
	{"tsim.mc_rejected_per_kref", "1/kref", []string{stats.TsimMCRejectedWhileBlocked}, nil},
	{"emcc.decrypt_at_l2_frac", "ratio", []string{stats.EmccDecryptAtL2}, []string{stats.EmccDecryptAtL2, stats.EmccDecryptAtMC}},
	{"emcc.useless_ratio", "ratio", []string{stats.EmccUseless}, []string{stats.EmccCtrInserted}},
	{"emcc.invalidations_per_kref", "1/kref", []string{stats.EmccInvalidations}, nil},
	{"dram.reads_per_kref", "1/kref", []string{stats.DramAccessDataRead, stats.DramAccessCtrRead, stats.DramAccessOvfL0Read, stats.DramAccessOvfHiRead}, nil},
	{"dram.writes_per_kref", "1/kref", []string{stats.DramAccessDataWrite, stats.DramAccessCtrWrite, stats.DramAccessOvfL0Write, stats.DramAccessOvfHiWrite}, nil},
	{"dram.row_hit_ratio", "ratio", []string{stats.DramRowHit}, []string{stats.DramRowHit, stats.DramRowClosed, stats.DramRowConflict}},
	{"dram.queue_full_retry_per_kref", "1/kref", []string{stats.TsimDRAMQueueFullRetry}, nil},
	{"overflow.events_per_kref", "1/kref", []string{stats.OverflowEvents}, nil},
}
