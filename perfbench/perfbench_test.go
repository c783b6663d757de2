package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fsim"
	"repro/internal/stats"
	"repro/internal/tsim"
)

// small scenarios keep the self-tests quick at the benchmark's own scale.
var (
	smallTsim = scenario{"tsim", "emcc", "canneal", 40_000, 40_000}
	smallFsim = scenario{"fsim", "emcc", "pageRank", 40_000, 80_000}
)

// byName runs the scenario the ordinary way: benchmark passed by name, no
// wrappers, and returns its stats digest.
func byName(t *testing.T, sc scenario, seed uint64) string {
	t.Helper()
	cfg := config.Default()
	if err := config.ApplySystem(&cfg, sc.system); err != nil {
		t.Fatal(err)
	}
	var st *stats.Set
	switch sc.sim {
	case "tsim":
		s, err := tsim.New(&cfg, tsim.Options{Benchmark: sc.bench, Cores: cores, Seed: seed, Refs: sc.refs, Warmup: sc.warmup, Scale: scale()})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		st = s.Stats()
	case "fsim":
		s, err := fsim.New(&cfg, fsim.Options{Benchmark: sc.bench, Cores: cores, Seed: seed, Refs: sc.refs, Warmup: sc.warmup, Scale: scale()})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		st = s.Stats()
	}
	d, err := digest(st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (t *timeline) warm() float64   { return sum(t.Warm) }
func (t *timeline) detail() float64 { return sum(t.Detail) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mustRun(t *testing.T, sc scenario, seed uint64, h hooks) result {
	t.Helper()
	r := sc.run(seed, h)
	if r.Err != "" {
		t.Fatalf("%s/%s seed %d: %s", sc.sim, sc.system, seed, r.Err)
	}
	return r
}

// Measuring from outside must not change what is simulated: generators
// built with NewSet+SpaceBytes and passed through the counting wrappers
// give the same stats as passing the benchmark by name.
func TestOutsideInMatchesByName(t *testing.T) {
	for _, sc := range []scenario{smallTsim, smallFsim} {
		r := mustRun(t, sc, 1, hooks{})
		if want := byName(t, sc, 1); r.Digest != want {
			t.Errorf("%s: wrapped digest %s, by-name digest %s", sc.sim, r.Digest, want)
		}
		if r.Pulls != sc.warmup+sc.refs || r.Detailed != sc.refs {
			t.Errorf("%s: pulled %d (%d detailed), want %d (%d)", sc.sim, r.Pulls, r.Detailed, sc.warmup+sc.refs, sc.refs)
		}
		if r.LiveHeapMB <= 0 {
			t.Errorf("%s: live heap not measured", sc.sim)
		}
		if r.CPU.warm() <= 0 || r.Wall.detail() <= 0 {
			t.Errorf("%s: boundary not found: warm %gs, detail %gs", sc.sim, r.CPU.warm(), r.Wall.detail())
		}
	}
}

// The seed reaches the generators, each seed repeats exactly, and broken
// runs are counted against the runs attempted.
func TestSeedAndFailureAccounting(t *testing.T) {
	for _, sc := range []scenario{smallTsim, smallFsim} {
		a, b := mustRun(t, sc, 1, hooks{}), mustRun(t, sc, 1, hooks{})
		c := mustRun(t, sc, 2, hooks{})
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 1 does not repeat: %s vs %s", sc.sim, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", sc.sim, a.Digest)
		}
		skewed := sc.run(1, hooks{skew: 1})
		if !strings.Contains(skewed.Err, "conservation") {
			t.Fatalf("%s: injected mismatch not caught: %q", sc.sim, skewed.Err)
		}

		rep := &report{scenarios: []scenario{sc}}
		for _, res := range []result{a, b, skewed} {
			rep.passes = append(rep.passes, pass{Results: []result{res}})
		}
		rep.check()
		if rep.failed != 1 || rep.attempted != 3 {
			t.Errorf("%s: fail_frac %d/%d, want 1/3", sc.sim, rep.failed, rep.attempted)
		}

		// A run whose stats differ from the other runs of the same seed
		// fails even though its own checks passed.
		rep = &report{scenarios: []scenario{sc}}
		for _, res := range []result{a, b, c} {
			rep.passes = append(rep.passes, pass{Results: []result{res}})
		}
		rep.check()
		if rep.failed != 1 || rep.digests[0] != a.Digest {
			t.Errorf("%s: digest vote failed %d/%d, chose %s", sc.sim, rep.failed, rep.attempted, rep.digests[0])
		}
	}
}

// A scenario that cannot be built fails instead of stopping the pass.
func TestConstructorErrorFails(t *testing.T) {
	r := scenario{"tsim", "emcc", "no-such-benchmark", 0, 1000}.run(1, hooks{})
	if r.Err == "" {
		t.Fatal("unknown benchmark did not fail")
	}
}

func TestFoldSyntheticStacks(t *testing.T) {
	fr := func(fn, file string) frame { return frame{fn, file} }
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"innermost module frame wins", []frame{
			fr("runtime.mapaccess1_fast64", "map_fast64.go"),
			fr("repro/internal/stats.(*Set).CounterRef", "stats.go"),
			fr("repro/internal/stats.(*Set).Inc", "stats.go"),
			fr("repro/internal/fsim.(*Sim).access", "fsim.go"),
			fr("main.main", "main.go"),
		}, "stats"},
		{"benchmark frames are skipped", []frame{
			fr("main.countingGen.Next", "workloads.go"),
			fr("repro/internal/tsim.(*core).step", "/src/internal/tsim/core.go"),
		}, "tsim.core"},
		{"l2Ctl", []frame{fr("repro/internal/tsim.(*l2Ctl).read", "/src/internal/tsim/l2.go")}, "tsim.l2"},
		{"l2 callback", []frame{fr("repro/internal/tsim.l2ReadDone", "/src/internal/tsim/l2.go")}, "tsim.l2"},
		{"llcSlice", []frame{fr("repro/internal/tsim.(*llcSlice).access", "/src/internal/tsim/llc.go")}, "tsim.llc"},
		{"mcCtl closure", []frame{fr("repro/internal/tsim.(*mcCtl).read.func1", "/src/internal/tsim/mcctl.go")}, "tsim.mc"},
		{"other tsim", []frame{fr("repro/internal/tsim.(*Sim).warm", "/src/internal/tsim/warm.go")}, "tsim"},
		{"engine", []frame{
			fr("repro/internal/sim.(*eventQueue).pop", "queue.go"),
			fr("repro/internal/tsim.(*Sim).Run", "tsim.go"),
		}, "sim"},
		{"runtime only", []frame{
			fr("runtime.scanobject", "mgcmark.go"),
			fr("internal/runtime/atomic.Load", "atomic.go"),
			fr("runtime.gcBgMarkWorker", "mgc.go"),
		}, "runtime"},
		{"no module frame", []frame{
			fr("compress/flate.(*compressor).deflate", "deflate.go"),
			fr("runtime/pprof.profileWriter", "pprof.go"),
		}, "other"},
		{"empty stack", nil, "runtime"},
	}
	var samples []sample
	for i, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layer %q, want %q", c.name, got, c.want)
		}
		samples = append(samples, sample{c.frames, int64(10 * (i + 1))})
	}
	folded := fold(samples)
	var total, sum int64
	for _, s := range samples {
		total += s.ns
	}
	for l, ns := range folded {
		if !known(l) {
			t.Errorf("fold produced unlisted layer %q", l)
		}
		sum += ns
	}
	if sum != total {
		t.Errorf("layer shares sum to %d/%d", sum, total)
	}
	if folded["tsim.l2"] != 30+40 || folded["stats"] != 10 {
		t.Errorf("fold %v", folded)
	}
}

// The decoder reads the profiles runtime/pprof writes, and a real tsim
// detailed phase folds into the layers the benchmark reports.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	h := hooks{
		detailStart: func() {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				t.Error(err)
			}
		},
		detailEnd: pprof.StopCPUProfile,
	}
	sc := smallTsim
	sc.refs = 400_000
	r := mustRun(t, sc, 1, h)
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	folded := fold(samples)
	var sum int64
	for _, ns := range folded {
		sum += ns
	}
	sim := 0.0
	for _, l := range []string{"sim", "cache", "tsim.core", "tsim.l2", "tsim.llc", "tsim.mc", "tsim", "mc", "dram"} {
		sim += float64(folded[l])
	}
	// The detailed phase is the simulator's work: most samples land in its
	// layers, and the sampled CPU time is of the order of the wall time.
	if sim < 0.5*float64(sum) {
		t.Errorf("simulator layers hold %.0f of %d ns: %v", sim, sum, folded)
	}
	if ratio := float64(sum) / 1e9 / r.CPU.detail(); math.IsNaN(ratio) || ratio < 0.3 || ratio > 3 {
		t.Errorf("profile holds %d ns for a %.2fs detailed phase", sum, r.CPU.detail())
	}
}
