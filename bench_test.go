package emccsim

// One benchmark per table/figure of the paper (DESIGN.md's per-experiment
// index), plus micro-benchmarks of the core substrates. The figure
// benchmarks share one memoised harness: the first benchmark that needs a
// given simulation pays for it, later ones reuse it — so `go test -bench=.`
// regenerates the full evaluation exactly once.
//
// Figure benchmarks run the harness in Quick mode (smaller traces); use
// cmd/figures without -quick for the full-size regeneration recorded in
// EXPERIMENTS.md.

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/dram"
	"repro/internal/figures"
	"repro/internal/fsim"
	"repro/internal/mc"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"

	iaddr "repro/internal/addr"
)

var (
	harnessOnce sync.Once
	harness     *figures.Harness
)

func sharedHarness() *figures.Harness {
	harnessOnce.Do(func() { harness = figures.NewHarness(true) })
	return harness
}

// meanPct extracts a percentage cell from a table's "mean" row.
func meanPct(t *figures.Table, col int) float64 {
	for _, r := range t.Rows {
		if r[0] == "mean" && col < len(r) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func benchFigure(b *testing.B, id string, metric string, col int) {
	h := sharedHarness()
	var tab *figures.Table
	for i := 0; i < b.N; i++ {
		var ok bool
		tab, ok = h.ByID(id)
		if !ok {
			b.Fatalf("unknown figure %s", id)
		}
	}
	if tab == nil || len(tab.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	if metric != "" {
		b.ReportMetric(meanPct(tab, col), metric)
	}
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

// ---- One benchmark per table/figure ----

func BenchmarkTable1Config(b *testing.B)                { benchFigure(b, "table1", "", 0) }
func BenchmarkFig02TrafficOverhead(b *testing.B)        { benchFigure(b, "fig2", "mean-with-llc-%", 6) }
func BenchmarkFig03LLCLatencyDistribution(b *testing.B) { benchFigure(b, "fig3", "", 0) }
func BenchmarkFig04NoCRoute(b *testing.B)               { benchFigure(b, "fig4", "", 0) }
func BenchmarkFig05TimelineCounterMiss(b *testing.B)    { benchFigure(b, "fig5", "", 0) }
func BenchmarkFig06CounterHitMiss2MB(b *testing.B)      { benchFigure(b, "fig6", "mean-llc-miss-%", 3) }
func BenchmarkFig07CounterHitMiss12MB(b *testing.B)     { benchFigure(b, "fig7", "mean-llc-miss-%", 3) }
func BenchmarkFig08TimelineCounterHit(b *testing.B)     { benchFigure(b, "fig8", "", 0) }
func BenchmarkFig10TimelineEMCCMiss(b *testing.B)       { benchFigure(b, "fig10", "", 0) }
func BenchmarkFig11UselessCounterAccesses(b *testing.B) {
	benchFigure(b, "fig11", "mean-useless-%", 1)
}
func BenchmarkFig12TotalCounterAccesses(b *testing.B)  { benchFigure(b, "fig12", "mean-emcc-%", 2) }
func BenchmarkFig13TimelineCounterHitLLC(b *testing.B) { benchFigure(b, "fig13", "", 0) }
func BenchmarkFig14TimelineXPT(b *testing.B)           { benchFigure(b, "fig14", "", 0) }
func BenchmarkFig15BandwidthBreakdown(b *testing.B)    { benchFigure(b, "fig15", "", 0) }
func BenchmarkFig16Performance(b *testing.B) {
	benchFigure(b, "fig16", "mean-emcc-gain-%", 4)
}
func BenchmarkFig17L2MissLatency(b *testing.B) { benchFigure(b, "fig17", "", 0) }
func BenchmarkFig18AESLatencySensitivity(b *testing.B) {
	benchFigure(b, "fig18", "mean-gain-at-25ns-%", 3)
}
func BenchmarkFig19AESBandwidthSensitivity(b *testing.B) {
	benchFigure(b, "fig19", "mean-at-l2-at-50pct-%", 3)
}
func BenchmarkFig20CounterCacheSensitivity(b *testing.B) {
	benchFigure(b, "fig20", "mean-gain-at-512k-%", 3)
}
func BenchmarkFig21ChannelSensitivity(b *testing.B) {
	benchFigure(b, "fig21", "mean-gain-8ch-%", 2)
}
func BenchmarkFig22QueuingDelay(b *testing.B)   { benchFigure(b, "fig22", "", 0) }
func BenchmarkFig23Invalidations(b *testing.B)  { benchFigure(b, "fig23", "mean-inval-%", 1) }
func BenchmarkFig24UselessRegular(b *testing.B) { benchFigure(b, "fig24", "mean-useless-%", 1) }

// BenchmarkAblations regenerates the design-choice ablation table (AES
// gating, adaptive offload, dynamic EMCC-off).
func BenchmarkAblations(b *testing.B) { benchFigure(b, "ablation", "", 0) }

// ---- Micro-benchmarks of the substrates ----

func BenchmarkAES128Encrypt(b *testing.B) {
	a := crypto.NewAES([]byte("0123456789abcdef"))
	var in, out [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		a.Encrypt(out[:], in[:])
	}
}

func BenchmarkGF64Mul(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= crypto.GF64Mul(uint64(i)*0x9e3779b9, 0xfeedface)
	}
	_ = acc
}

func BenchmarkBlockMAC(b *testing.B) {
	e := crypto.NewEngine([]byte("benchmark key!!!"))
	block := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		e.MAC(block, uint64(i)<<6, uint64(i))
	}
}

func BenchmarkBlockEncrypt(b *testing.B) {
	e := crypto.NewEngine([]byte("benchmark key!!!"))
	buf := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		e.Encrypt(buf, buf, uint64(i)<<6, uint64(i))
	}
}

func BenchmarkCacheLookupInsert(b *testing.B) {
	c := cache.New("bench", 1<<20, 8)
	for i := 0; i < b.N; i++ {
		blk := uint64(i) % 32768
		if !c.Lookup(blk) {
			c.Insert(blk, i&1 == 0, iaddr.KindData)
		}
	}
}

func BenchmarkEventEngine(b *testing.B) {
	eng := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(100, tick)
		}
	}
	eng.After(100, tick)
	eng.Run()
}

func BenchmarkDRAMRandomReads(b *testing.B) {
	eng := sim.New()
	st := stats.NewSet()
	cfg := config.Default()
	d := dram.New(eng, st, &cfg)
	r := uint64(12345)
	done := 0
	var issue func()
	issue = func() {
		r = r*6364136223846793005 + 1
		d.Enqueue(&dram.Request{Block: r % (1 << 24), Kind: dram.TrafficData, Done: func(sim.Time) {
			done++
			if done < b.N {
				issue()
			}
		}})
	}
	eng.At(0, issue)
	eng.Run()
}

func BenchmarkAESPoolReserve(b *testing.B) {
	eng := sim.New()
	p := mc.NewAESPool(eng, 2.6e9, sim.NS(14))
	for i := 0; i < b.N; i++ {
		p.Reserve(5, sim.Time(i)*1000)
	}
}

func BenchmarkNoCLatency(b *testing.B) {
	m := noc.New(6, 5, sim.NS(1), sim.NS(3))
	var acc sim.Time
	for i := 0; i < b.N; i++ {
		acc += m.OneWay(m.CoreTile(i%28), m.SliceOf(uint64(i)))
	}
	_ = acc
}

func BenchmarkWorkloadCanneal(b *testing.B) {
	gens, err := workload.NewSet("canneal", 1, 1, workload.TestScale())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		gens[0].Next()
	}
}

func BenchmarkWorkloadPageRank(b *testing.B) {
	gens, err := workload.NewSet("pageRank", 1, 1, workload.TestScale())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		gens[0].Next()
	}
}

func BenchmarkFunctionalSimThroughput(b *testing.B) {
	cfg := config.Default()
	s, err := fsim.New(&cfg, fsim.Options{
		Benchmark: "canneal", Seed: 1, Refs: int64(b.N) + 1, Scale: workload.TestScale(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimingSimThroughput measures the disabled-tracer path: no
// tracer is attached, so every obs call site reduces to a nil check. The
// tracing PR's acceptance bar is that this stays within 1% of the
// pre-instrumentation number; BenchmarkTimingSimTraced below prices the
// enabled path for comparison.
func BenchmarkTimingSimThroughput(b *testing.B) {
	cfg := config.Default()
	cfg.EMCC = true
	refs := int64(b.N)
	if refs < 4 {
		refs = 4
	}
	s, err := tsim.New(&cfg, tsim.Options{
		Benchmark: "canneal", Seed: 1, Refs: refs, Scale: workload.TestScale(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimingSimTraced is the same run with full tracing into the
// aggregate sink (no Chrome writer): the cost of attributing every request.
func BenchmarkTimingSimTraced(b *testing.B) {
	cfg := config.Default()
	cfg.EMCC = true
	refs := int64(b.N)
	if refs < 4 {
		refs = 4
	}
	s, err := tsim.New(&cfg, tsim.Options{
		Benchmark: "canneal", Seed: 1, Refs: refs, Scale: workload.TestScale(),
	})
	if err != nil {
		b.Fatal(err)
	}
	s.SetTracer(obs.New(obs.Options{Stats: s.Stats()}))
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimingSimCoRun runs the multi-core co-run frontend: four cores
// each replay their own workload stream ("mcf+canneal" alternates mcf and
// canneal across cores at stacked, disjoint address regions) into the
// shared sliced LLC on a 4-channel memory system. The sub-benchmark name
// keeps the series comparable with earlier BENCH artifacts.
func BenchmarkTimingSimCoRun(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		cfg := config.Default()
		cfg.EMCC = true
		cfg.Channels = 4
		refs := int64(b.N)
		if refs < 4 {
			refs = 4
		}
		s, err := tsim.New(&cfg, tsim.Options{
			Benchmark: "mcf+canneal", Seed: 1, Refs: refs, Scale: workload.TestScale(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		s.Run()
	})
}
