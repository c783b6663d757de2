// Command bench runs the performance-critical benchmarks — the event-engine
// micro-benchmarks (prebound vs closure vs the retired container/heap
// baseline), the telemetry hot path (histogram record/quantile and the
// flight-recorder interval snapshot), the DRAM channel loop, and the tsim
// end-to-end throughput, single-benchmark and 4-core co-run — and emits
// one machine-readable JSON artifact. The BENCH_*.json files in the repo
// root are earlier artifacts; CI regenerates the artifact on every push
// and uploads it for trend inspection.
//
// Each run also diffs itself against the newest committed BENCH_*.json
// (override with -baseline): the artifact's "deltas" list carries the
// per-benchmark ns/op ratio and allocation comparison, and
// -fail-alloc-regress turns allocation growth beyond a fraction into a
// non-zero exit for CI.
//
// Usage:
//
//	go run ./cmd/bench                 # JSON to stdout
//	go run ./cmd/bench -out BENCH.json -count 3
//	go run ./cmd/bench -fail-alloc-regress 0.10   # CI gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suites lists the packages and benchmark selections that feed the
// artifact. The sim suite carries the legacy baseline pair, so the derived
// speedups can be computed from one run.
var suites = []struct {
	pkg     string
	pattern string
}{
	{"./internal/sim", "^(BenchmarkEngineTickPrebound|BenchmarkEngineTickClosure|BenchmarkEngineMixedQueue|BenchmarkLegacyEngineTick|BenchmarkLegacyEngineMixedQueue)$"},
	{"./internal/metrics", "^(BenchmarkHistObserve|BenchmarkHistQuantile|BenchmarkFlightRecord)$"},
	{"./internal/stats", "^BenchmarkFlightRecordSet$"},
	{".", "^(BenchmarkEventEngine|BenchmarkDRAMRandomReads|BenchmarkTimingSimThroughput|BenchmarkTimingSimCoRun)$"},
}

type benchResult struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type artifact struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is runtime.NumCPU at measurement time.
	CPUs       int           `json:"cpus"`
	Count      int           `json:"count"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Derived holds ratios the acceptance criteria gate on: the engine
	// tick and mixed-queue speedups over the container/heap baseline.
	Derived map[string]float64 `json:"derived"`
	// Baseline is the prior artifact the deltas below compare against
	// (the newest BENCH_*.json found, or the -baseline flag), empty when
	// none was found.
	Baseline string `json:"baseline,omitempty"`
	// Deltas holds one entry per benchmark present in both artifacts:
	// the ns/op ratio against the baseline and whether the allocation
	// count regressed. CI gates on these via -fail-alloc-regress.
	Deltas []benchDelta `json:"deltas,omitempty"`
}

// benchDelta compares one benchmark (mean across -count repeats) against
// the same benchmark in the baseline artifact.
type benchDelta struct {
	Name        string  `json:"name"`
	BaseNsPerOp float64 `json:"base_ns_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	// NsRatio is current/baseline: 1.10 means 10% slower than the
	// baseline artifact. Wall-clock is advisory (CI machines vary);
	// allocation counts are deterministic and gate hard.
	NsRatio         float64 `json:"ns_ratio"`
	BaseAllocsPerOp int64   `json:"base_allocs_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	// AllocRegressed marks an allocation-count increase beyond the
	// tolerance handed to computeDeltas (any increase from a 0-alloc
	// baseline always regresses — those are pinned paths).
	AllocRegressed bool `json:"alloc_regressed"`
}

func main() {
	out := flag.String("out", "", "write the JSON artifact here (default stdout)")
	count := flag.Int("count", 1, "benchmark repetitions (-count for go test; the artifact keeps every run)")
	baseline := flag.String("baseline", "",
		"prior artifact to diff against (default: newest BENCH_*.json in the repo root; 'none' disables)")
	failAlloc := flag.Float64("fail-alloc-regress", 0,
		"exit non-zero when any benchmark's allocs/op grew more than this fraction over the baseline (0 disables; CI uses 0.10)")
	flag.Parse()

	art := artifact{
		Tool:      "cmd/bench",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Count:     *count,
		Derived:   map[string]float64{},
	}
	for _, s := range suites {
		res, err := runSuite(s.pkg, s.pattern, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.pkg, err)
			os.Exit(1)
		}
		art.Benchmarks = append(art.Benchmarks, res...)
	}
	derive(&art)

	regressed, err := diffBaseline(&art, *baseline, *failAlloc)
	if err != nil {
		// A missing or malformed baseline must not sink a bench run —
		// the fresh numbers are still worth recording.
		fmt.Fprintf(os.Stderr, "bench: baseline diff skipped: %v\n", err)
	}

	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "bench: allocation regression beyond %.0f%% vs %s in: %s\n",
			*failAlloc*100, art.Baseline, strings.Join(regressed, ", "))
		os.Exit(1)
	}
}

// diffBaseline locates the prior artifact, computes per-benchmark deltas
// into art, and returns the names whose allocation counts regressed beyond
// tol (empty when tol is 0 — deltas are then informational only).
func diffBaseline(art *artifact, path string, tol float64) ([]string, error) {
	if path == "none" {
		return nil, nil
	}
	if path == "" {
		var err error
		if path, err = newestArtifact("."); err != nil || path == "" {
			return nil, err
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base artifact
	if err := json.Unmarshal(buf, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	art.Baseline = path
	art.Deltas = computeDeltas(base.Benchmarks, art.Benchmarks, tol)
	var regressed []string
	if tol > 0 {
		for _, d := range art.Deltas {
			if d.AllocRegressed {
				regressed = append(regressed, d.Name)
			}
		}
	}
	return regressed, nil
}

// newestArtifact returns the BENCH_*.json with the highest PR number in
// dir, or "" when there is none.
func newestArtifact(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		numeral := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		n, err := strconv.Atoi(numeral)
		if err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	return best, nil
}

// computeDeltas joins two benchmark lists by name (means across repeats)
// and flags allocation regressions beyond tol. A benchmark only present on
// one side produces no delta: new benchmarks have no history, retired ones
// no current number.
func computeDeltas(base, cur []benchResult, tol float64) []benchDelta {
	type agg struct {
		ns     float64
		allocs int64
		n      int64
	}
	fold := func(list []benchResult) (map[string]*agg, []string) {
		m := map[string]*agg{}
		var order []string
		for _, b := range list {
			a := m[b.Name]
			if a == nil {
				a = &agg{}
				m[b.Name] = a
				order = append(order, b.Name)
			}
			a.ns += b.NsPerOp
			a.allocs += b.AllocsPerOp
			a.n++
		}
		return m, order
	}
	baseBy, _ := fold(base)
	curBy, order := fold(cur)
	var deltas []benchDelta
	for _, name := range order {
		b, c := baseBy[name], curBy[name]
		if b == nil {
			continue
		}
		d := benchDelta{
			Name:            name,
			BaseNsPerOp:     b.ns / float64(b.n),
			NsPerOp:         c.ns / float64(c.n),
			BaseAllocsPerOp: b.allocs / b.n,
			AllocsPerOp:     c.allocs / c.n,
		}
		if d.BaseNsPerOp > 0 {
			d.NsRatio = d.NsPerOp / d.BaseNsPerOp
		}
		// Deterministic pools make allocs/op exact: from a 0-alloc
		// baseline any allocation regresses; otherwise apply the
		// fractional tolerance.
		if d.BaseAllocsPerOp == 0 {
			d.AllocRegressed = d.AllocsPerOp > 0
		} else {
			d.AllocRegressed = float64(d.AllocsPerOp) > float64(d.BaseAllocsPerOp)*(1+tol)
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// runSuite executes one `go test -bench` invocation and parses its
// standard output into results.
func runSuite(pkg, pattern string, count int) ([]benchResult, error) {
	cmd := exec.Command("go", "test", "-run=^$", "-bench", pattern,
		"-benchmem", "-count", strconv.Itoa(count), pkg)
	outBuf, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test: %v\n%s", err, outBuf)
	}
	var res []benchResult
	for _, line := range strings.Split(string(outBuf), "\n") {
		r, ok := parseBenchLine(pkg, line)
		if ok {
			res = append(res, r)
		}
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched %q\n%s", pattern, outBuf)
	}
	return res, nil
}

// parseBenchLine decodes one textual benchmark result, e.g.
//
//	BenchmarkEngineTickPrebound-8  18571428  63.03 ns/op  0 B/op  0 allocs/op
func parseBenchLine(pkg, line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Package: pkg, Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(v, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return r, true
}

// derive computes the engine speedups over the retired container/heap
// baseline from whatever runs are present (means across -count repeats).
func derive(art *artifact) {
	mean := func(name string) float64 {
		var sum float64
		var n int
		for _, b := range art.Benchmarks {
			if b.Name == name {
				sum += b.NsPerOp
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if legacy, tick := mean("LegacyEngineTick"), mean("EngineTickPrebound"); legacy > 0 && tick > 0 {
		art.Derived["engine_tick_speedup_vs_container_heap"] = legacy / tick
	}
	if legacy, mixed := mean("LegacyEngineMixedQueue"), mean("EngineMixedQueue"); legacy > 0 && mixed > 0 {
		art.Derived["engine_mixed_speedup_vs_container_heap"] = legacy / mixed
	}
}
