// Command perfbench measures what the serial simulators cost to run on the
// host, end to end and layer by layer, driving them only through their
// public API (tsim.New/Run, fsim.New/Run, workload.NewSet/SpaceBytes,
// Sim.Stats, Sim.Engine().Steps()).
//
//	bash perfbench/run.sh --workload tsim-irregular --seed 1 --seconds 40 --trace 0
//
// Each measured pass runs every scenario of the workload once, in a fresh
// child process, so the graph cache, the heap and the peak RSS start cold
// the way a user's run does. Passes repeat until --seconds is spent; the
// last stdout line is one JSON object with the medians over passes:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1
// (where odd passes carry a CPU profile of the detailed phase).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "", "tsim-irregular | tsim-resident | fsim-sweep")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 40, "measuring time budget")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from profiled passes")
		child   = flag.Bool("child", false, "run one pass and print its record (internal)")
		profile = flag.Bool("profile", false, "with -child: profile the detailed phase")
	)
	flag.Parse()
	scs, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	if *child {
		p, err := runPass(scs, *seed, *profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := measure(*name, scs, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, *trace == 1)
}

// pass is one child process's record: every scenario of a workload once.
type pass struct {
	Results    []result
	Traced     bool
	PeakRSSMB  float64 // VmHWM of the child process
	AllocBytes uint64  // Go heap bytes allocated over the scenarios
	GCCycles   uint32
	NsPerNext  float64 // traced passes: generator cost drained in isolation
}

func (p *pass) sum(f func(*result) float64) float64 {
	var s float64
	for i := range p.Results {
		s += f(&p.Results[i])
	}
	return s
}

// runPass runs each scenario once in this process. With profile set, each
// scenario's detailed phase runs under a CPU profile, folded into layers.
func runPass(scs []scenario, seed uint64, profile bool) (*pass, error) {
	p := &pass{Traced: profile}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, sc := range scs {
		var buf bytes.Buffer
		var h hooks
		profiling := false
		if profile {
			h.detailStart = func() { profiling = pprof.StartCPUProfile(&buf) == nil }
			h.detailEnd = func() {
				if profiling {
					pprof.StopCPUProfile()
					profiling = false
				}
			}
		}
		r := sc.run(seed, h)
		if profiling { // the run failed inside the detailed phase
			h.detailEnd()
		}
		if profile && r.Err == "" {
			samples, err := parseCPUProfile(buf.Bytes())
			if err != nil {
				return nil, err
			}
			r.LayerNS = fold(samples)
		}
		p.Results = append(p.Results, r)
	}
	runtime.ReadMemStats(&ms1)
	p.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.GCCycles = ms1.NumGC - ms0.NumGC
	for _, r := range p.Results {
		if r.LiveHeapMB > 0 { // not the forced GC that measured it
			p.GCCycles--
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p.PeakRSSMB = rss
	if profile {
		if p.NsPerNext, err = nsPerNext(scs[0].bench, seed); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// nsPerNext drains a fresh generator set of the benchmark round-robin, as
// the simulators pull it, and reports host ns per reference.
func nsPerNext(bench string, seed uint64) (float64, error) {
	gens, err := workload.NewSet(bench, cores, seed, scale())
	if err != nil {
		return 0, err
	}
	const n = 1 << 21
	var sink uint64
	t := time.Now()
	for i := 0; i < n/cores; i++ {
		for _, g := range gens {
			sink += g.Next().Addr
		}
	}
	el := time.Since(t)
	if sink == 0 {
		return 0, fmt.Errorf("workload %s: generators emitted only address 0", bench)
	}
	return float64(el.Nanoseconds()) / n, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if f := strings.Fields(ln); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// measure runs passes in child processes, one after another, until the
// budget would be overrun by one more pass. Traced runs alternate plain
// and profiled passes, so the tracing overhead compares like with like.
func measure(name string, scs []scenario, seed uint64, seconds float64, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	minPasses := 1
	if traced {
		minPasses = 2
	}
	rep := &report{workload: name, seed: seed, scenarios: scs}
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minPasses && (time.Since(start)+last).Seconds() > seconds {
			break
		}
		t := time.Now()
		args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10)}
		prof := traced && i%2 == 1
		if prof {
			args = append(args, "-profile")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		// A child must not outlive a benchmark that is stopped mid-pass.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		last = time.Since(t)
		var p pass
		if err == nil {
			err = json.Unmarshal(out, &p)
		}
		if err != nil {
			// The child died outside any scenario's recover (a fatal
			// runtime error, an OOM kill): all its scenarios failed.
			p = pass{Traced: prof}
			for _, sc := range scs {
				p.Results = append(p.Results, result{System: sc.system, Err: "pass: " + err.Error()})
			}
		}
		rep.passes = append(rep.passes, p)
	}
	rep.check()
	return rep, nil
}

// report aggregates a run's passes.
type report struct {
	workload  string
	seed      uint64
	scenarios []scenario
	passes    []pass

	attempted, failed int
	digests           []string // per scenario: the digest most passes agree on
	errs              []string
}

// check applies the cross-pass rule: a scenario run fails when its stats
// digest differs from what the other runs of the same code and seed
// produced. It then counts attempts and failures.
func (r *report) check() {
	r.digests = make([]string, len(r.scenarios))
	for i := range r.scenarios {
		votes := map[string]int{}
		for _, p := range r.passes {
			if d := p.Results[i].Digest; p.Results[i].Err == "" {
				votes[d]++
			}
		}
		best := 0
		for d, n := range votes {
			if n > best || (n == best && d < r.digests[i]) {
				r.digests[i], best = d, n
			}
		}
	}
	for pi := range r.passes {
		for i := range r.passes[pi].Results {
			res := &r.passes[pi].Results[i]
			if res.Err == "" && res.Digest != r.digests[i] {
				res.Err = fmt.Sprintf("stats digest %s differs from %s of the other runs", res.Digest, r.digests[i])
			}
			r.attempted++
			if res.Err != "" {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("pass %d %s: %s", pi, res.System, res.Err))
			}
		}
	}
}

// ok reports whether every scenario of the pass succeeded.
func (p *pass) ok() bool {
	for _, r := range p.Results {
		if r.Err != "" {
			return false
		}
	}
	return true
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median over the good passes selected by traced.
func (r *report) median(traced bool, f func(*pass) float64) float64 {
	var vs []float64
	for i := range r.passes {
		if p := &r.passes[i]; p.Traced == traced && p.ok() {
			vs = append(vs, f(p))
		}
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// timing is a run's timeline on one clock: every timed piece of every
// scenario (the set-up steps, each warmup and detailed chunk, the
// snapshot) at its median over the selected passes, summed per phase. All
// passes of a run replay the same simulation, so a piece is the same work
// in each of them; the per-piece median discards the pieces a busy host
// slowed in a minority of passes, which a median of whole-pass times
// cannot.
type timing struct{ graph, new, warm, detail, snap float64 }

func (t timing) setup() float64 { return t.graph + t.new + t.warm }
func (t timing) total() float64 { return t.setup() + t.detail + t.snap }

// Clocks for report.timing.
func cpuClock(r *result) *timeline  { return &r.CPU }
func wallClock(r *result) *timeline { return &r.Wall }

func (r *report) timing(traced bool, clock func(*result) *timeline) timing {
	var t timing
	for i := range r.scenarios {
		var rs []*result
		for pi := range r.passes {
			if p := &r.passes[pi]; p.Traced == traced && p.ok() {
				rs = append(rs, &p.Results[i])
			}
		}
		if len(rs) == 0 {
			continue
		}
		vs := make([]float64, len(rs))
		piece := func(f func(*timeline) float64) float64 {
			for j, res := range rs {
				vs[j] = f(clock(res))
			}
			return median(vs)
		}
		chunks := func(f func(*timeline) []float64) float64 {
			n := len(f(clock(rs[0])))
			for _, res := range rs {
				n = min(n, len(f(clock(res))))
			}
			var s float64
			for k := 0; k < n; k++ {
				s += piece(func(tl *timeline) float64 { return f(tl)[k] })
			}
			return s
		}
		t.graph += piece(func(tl *timeline) float64 { return tl.Graph })
		t.new += piece(func(tl *timeline) float64 { return tl.New })
		t.warm += chunks(func(tl *timeline) []float64 { return tl.Warm })
		t.detail += chunks(func(tl *timeline) []float64 { return tl.Detail })
		t.snap += piece(func(tl *timeline) float64 { return tl.Snap })
	}
	return t
}

// maxRSS is the highest peak RSS of the plain passes. A pass's peak
// depends on where its GC cycles happen to land: the heap grows in 4 MB
// steps, so passes of one scenario read 18.5, 22.7 or 27.8 MB. That is
// why it is a layer metric, and heap_live_mb the gated one.
func (r *report) maxRSS() float64 {
	var m float64
	for _, p := range r.passes {
		if !p.Traced && p.ok() {
			m = max(m, p.PeakRSSMB)
		}
	}
	return m
}

// detailedRefs is the detailed references one pass simulates.
func (r *report) detailedRefs() float64 {
	var n int64
	for _, sc := range r.scenarios {
		n += sc.refs / cores * cores
	}
	return float64(n)
}

// endToEnd computes the user-visible metrics over the plain passes. The
// times are host CPU seconds of the benchmark process: on a VM the wall
// clock also counts the time the hypervisor gave the CPU to another guest,
// which moved whole runs by a quarter on the host the bounds were set on.
func (r *report) endToEnd() map[string]metric {
	t := r.timing(false, cpuClock)
	return map[string]metric{
		"refs_per_s": {r.detailedRefs() / t.detail, "1/s"},
		"setup_s":    {t.setup(), "s"},
		"cpu_s":      {t.total(), "s"},
		"heap_live_mb": {r.median(false, func(p *pass) float64 {
			var m float64
			for _, res := range p.Results {
				m = max(m, res.LiveHeapMB)
			}
			return m
		}), "MB"},
		"alloc_bytes_per_ref": {r.median(false, func(p *pass) float64 {
			return float64(p.AllocBytes) / p.sum(func(r *result) float64 { return float64(r.Pulls) })
		}), "B/ref"},
	}
}

// perLayer computes the layer metrics: host CPU time per detailed
// reference per layer from the profiled passes, set-up phases, runtime
// counters, and the simulated counts (exact, from the first good pass).
func (r *report) perLayer() map[string]metric {
	m := map[string]metric{}
	var detailed float64
	layerNS := map[string]float64{}
	for i := range r.passes {
		p := &r.passes[i]
		if !p.Traced || !p.ok() {
			continue
		}
		detailed += p.sum(func(r *result) float64 { return float64(r.Detailed) })
		for _, res := range p.Results {
			for l, ns := range res.LayerNS {
				layerNS[l] += float64(ns)
			}
		}
	}
	for _, l := range layers {
		v := 0.0
		if detailed > 0 {
			v = layerNS[l] / detailed
		}
		m["host."+l] = metric{v, "ns/ref"}
	}
	m["workload.ns_per_next"] = metric{r.median(true, func(p *pass) float64 { return p.NsPerNext }), "ns/ref"}
	plain := r.timing(false, cpuClock)
	m["setup.graph_s"] = metric{plain.graph, "s"}
	m["setup.new_s"] = metric{plain.new, "s"}
	m["setup.warm_s"] = metric{plain.warm, "s"}
	m["peak_rss_mb"] = metric{r.maxRSS(), "MB"}
	m["runtime.gc_cycles"] = metric{r.median(false, func(p *pass) float64 { return float64(p.GCCycles) }), "count"}
	overhead := 0.0
	if plain.total() > 0 {
		overhead = r.timing(true, cpuClock).total() / plain.total()
	}
	m["trace.overhead"] = metric{overhead, "ratio"}
	for k, v := range r.simulated() {
		m[k] = v
	}
	return m
}

// simulated derives the exact simulated counts from the first good pass:
// tsim quantities pooled over the workload's tsim scenarios, fsim ones per
// system. Quantities a workload does not exercise read 0.
func (r *report) simulated() map[string]metric {
	m := map[string]metric{}
	var good *pass
	for i := range r.passes {
		if r.passes[i].ok() {
			good = &r.passes[i]
			break
		}
	}
	tc := map[string]float64{}
	var tref, steps float64
	for _, sys := range sweepSystems {
		m["fsim.l2_miss_per_kref."+sys] = metric{0, "1/kref"}
		m["fsim.dram_ctr_read_per_kref."+sys] = metric{0, "1/kref"}
	}
	if good != nil {
		for i, res := range good.Results {
			if r.scenarios[i].sim == "fsim" {
				k := float64(res.Detailed) / 1000
				m["fsim.l2_miss_per_kref."+res.System] = metric{float64(res.Counts[stats.FsimL2DataMiss]) / k, "1/kref"}
				m["fsim.dram_ctr_read_per_kref."+res.System] = metric{float64(res.Counts[stats.FsimDRAMCtrRead]) / k, "1/kref"}
				continue
			}
			tref += float64(res.Detailed)
			steps += float64(res.Steps)
			for k, v := range res.Counts {
				tc[k] += float64(v)
			}
		}
	}
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	kref := tref / 1000
	m["sim.events_per_ref"] = metric{ratio(steps, tref), "1/ref"}
	for _, q := range tsimQuantities {
		var n, d float64
		for _, k := range q.num {
			n += tc[k]
		}
		for _, k := range q.den {
			d += tc[k]
		}
		if q.den == nil {
			d = kref
		}
		m[q.name] = metric{ratio(n, d), q.unit}
	}
	return m
}

// print writes the human-readable table, then the result line.
func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "# perfbench %s seed=%d passes=%d go=%s numcpu=%d\n",
		r.workload, r.seed, len(r.passes), runtime.Version(), runtime.NumCPU())
	for i, sc := range r.scenarios {
		fmt.Fprintf(w, "# scenario %-5s %-10s %-12s warmup=%d refs=%d digest=%s\n",
			sc.sim, sc.system, sc.bench, sc.warmup, sc.refs, r.digests[i])
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "# FAIL", e)
	}
	fmt.Fprintf(w, "# fail_frac %d/%d scenario runs\n", r.failed, r.attempted)
	wt := r.timing(traced, wallClock)
	fmt.Fprintf(w, "# wall clock (not gated): setup %.3f s, detailed %.3f s (%.4g refs/s), total %.3f s\n",
		wt.setup(), wt.detail, r.detailedRefs()/wt.detail, wt.total())
	if gain, ok := r.ipcGain(); ok {
		fmt.Fprintf(w, "# model note (not gated): simulated EMCC-over-Morphable IPC gain %+.2f%% (paper, canneal: +12.5%%)\n", 100*gain)
	}
	ms := r.endToEnd()
	if traced {
		ms = r.perLayer()
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	var hostNS float64
	for _, l := range layers {
		hostNS += ms["host."+l].Value
	}
	for _, k := range names {
		share := ""
		if strings.HasPrefix(k, "host.") && hostNS > 0 {
			share = fmt.Sprintf("  %5.1f%% of host time", 100*ms[k].Value/hostNS)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s%s\n", k, ms[k].Value, ms[k].Unit, share)
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // no good pass measured it; correct is false then
			ms[k] = m
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(line))
}

// ipcGain is the simulated EMCC-over-Morphable IPC gain when the workload
// runs both systems under tsim.
func (r *report) ipcGain() (float64, bool) {
	for _, p := range r.passes {
		if !p.ok() {
			continue
		}
		ipc := map[string]float64{}
		for i, res := range p.Results {
			if r.scenarios[i].sim == "tsim" {
				ipc[res.System] = res.IPC
			}
		}
		if ipc["emcc"] > 0 && ipc["morphable"] > 0 {
			return ipc["emcc"]/ipc["morphable"] - 1, true
		}
		return 0, false
	}
	return 0, false
}
