package tsim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workload"
)

func run(t *testing.T, mutate func(*config.Config), bench string, refs, warm int64) (*Sim, Result) {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(&cfg, Options{
		Benchmark: bench, Seed: 3, Refs: refs, Warmup: warm,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, s.Run()
}

func TestNonSecureRunCompletes(t *testing.T) {
	s, res := run(t, func(c *config.Config) {
		c.Counter = config.CtrNone
		c.CountersInLLC = false
	}, "canneal", 100_000, 200_000)
	if res.SimulatedTime <= 0 || res.Instructions <= 0 || res.IPC <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// IPC is aggregated across cores.
	if res.IPC > float64(s.cfg.IssueWidth*s.opt.Cores) {
		t.Fatalf("aggregate IPC %.2f exceeds machine width", res.IPC)
	}
	if s.st.Counter("dram/access/counter/read") != 0 {
		t.Fatal("non-secure run generated counter traffic")
	}
}

func bipbipCfg(c *config.Config) {
	c.Counter = config.CtrBipBip
	c.CountersInLLC = false
}

func insramCfg(c *config.Config) {
	c.Counter = config.CtrInSRAM
	c.CountersInLLC = false
}

// smallLLC shrinks the LLC so the working set spills and dirty blocks
// reach DRAM — the writeback/encrypt path is dead code otherwise at test
// scale.
func smallLLC(c *config.Config) { c.L3Bytes = 256 << 10 }

// TestBipBipRunIsCounterFree pins the tentpole claim: CtrBipBip generates
// zero counter traffic anywhere (DRAM, LLC lookups, on-chip misses), zero
// MC AES pool pressure, and still pays a cipher on every DRAM fill.
func TestBipBipRunIsCounterFree(t *testing.T) {
	s, res := run(t, func(c *config.Config) { bipbipCfg(c); smallLLC(c) },
		"canneal", 100_000, 200_000)
	if res.SimulatedTime <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	for _, key := range []string{
		stats.DramAccessCtrRead, stats.DramAccessCtrWrite,
		stats.DramAccessOvfL0Read, stats.DramAccessOvfHiRead,
		stats.TsimCtrLLCLookup, stats.TsimCtrMissOnchip,
		stats.OverflowEvents,
	} {
		if n := s.st.Counter(key); n != 0 {
			t.Errorf("counter-free design produced %s = %d", key, n)
		}
	}
	if s.mc.aes != nil {
		t.Fatal("bipbip built an MC AES pool")
	}
	if s.mc.home != nil {
		t.Fatal("bipbip built a metadata home")
	}
	dec := s.st.Counter(stats.BipBipDecryptOps)
	if dec == 0 {
		t.Fatal("no bipbip decrypt ops recorded")
	}
	if dec != s.st.Counter(stats.TsimMCDataFill) {
		t.Fatalf("decrypt ops %d != data fills %d", dec, s.st.Counter(stats.TsimMCDataFill))
	}
	enc := s.st.Counter(stats.BipBipEncryptOps)
	if enc == 0 {
		t.Fatal("no bipbip encrypt ops despite writebacks")
	}
	if writes := s.st.Counter(stats.DramAccessDataWrite); enc != writes {
		t.Fatalf("encrypt ops %d != data writebacks %d", enc, writes)
	}
	// The cipher is charged at the cache controller (L2 side), never at
	// the MC: the MC exposure accumulator must stay empty.
	if n := s.st.Accum(stats.TsimCryptoExposureMCPS).Count; n != 0 {
		t.Fatalf("bipbip recorded %d MC crypto exposures", n)
	}
	if s.st.Accum(stats.TsimCryptoExposureL2PS).Count == 0 {
		t.Fatal("bipbip never recorded L2 cipher exposure")
	}
}

// TestInSRAMRunUsesGeometryPool: CtrInSRAM is also counter-free, but its
// cipher runs at the MC on a pool whose latency derives from SRAM geometry.
func TestInSRAMRunUsesGeometryPool(t *testing.T) {
	s, res := run(t, func(c *config.Config) { insramCfg(c); smallLLC(c) },
		"canneal", 100_000, 200_000)
	if res.SimulatedTime <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if s.st.Counter(stats.DramAccessCtrRead) != 0 || s.st.Counter(stats.TsimCtrLLCLookup) != 0 {
		t.Fatal("counter-free design produced counter traffic")
	}
	if s.mc.home != nil {
		t.Fatal("insram built a metadata home")
	}
	if s.mc.aes == nil {
		t.Fatal("insram did not build its geometry AES pool")
	}
	if got, want := s.mc.aes.Latency(), config.InSRAMAESLatency(s.cfg); got != want {
		t.Fatalf("pool latency %v, want geometry-derived %v", got, want)
	}
	dec := s.st.Counter(stats.InSRAMDecryptOps)
	if dec == 0 || dec != s.st.Counter(stats.TsimMCDataFill) {
		t.Fatalf("decrypt ops %d vs data fills %d", dec, s.st.Counter(stats.TsimMCDataFill))
	}
	enc := s.st.Counter(stats.InSRAMEncryptOps)
	if writes := s.st.Counter(stats.DramAccessDataWrite); enc == 0 || enc != writes {
		t.Fatalf("encrypt ops %d vs data writebacks %d", enc, writes)
	}
	// Exposure is at the MC (the cipher cannot start before the
	// ciphertext arrives), never at L2.
	if s.st.Accum(stats.TsimCryptoExposureMCPS).Count == 0 {
		t.Fatal("insram never recorded MC cipher exposure")
	}
	if n := s.st.Accum(stats.TsimCryptoExposureL2PS).Count; n != 0 {
		t.Fatalf("insram recorded %d L2 crypto exposures", n)
	}
}

// TestCounterFreeDesignsSlowerThanNonSecure: both new designs still pay
// their cipher on the critical path, so they cannot beat the non-secure
// baseline (determinism makes the comparison exact, not statistical).
func TestCounterFreeDesignsSlowerThanNonSecure(t *testing.T) {
	_, ns := run(t, func(c *config.Config) {
		c.Counter = config.CtrNone
		c.CountersInLLC = false
	}, "canneal", 100_000, 200_000)
	_, bb := run(t, bipbipCfg, "canneal", 100_000, 200_000)
	_, is := run(t, insramCfg, "canneal", 100_000, 200_000)
	if bb.SimulatedTime < ns.SimulatedTime {
		t.Fatalf("bipbip (%v) faster than non-secure (%v)", bb.SimulatedTime, ns.SimulatedTime)
	}
	if is.SimulatedTime < ns.SimulatedTime {
		t.Fatalf("insram (%v) faster than non-secure (%v)", is.SimulatedTime, ns.SimulatedTime)
	}
}

func TestSecureSystemsAreSlower(t *testing.T) {
	_, ns := run(t, func(c *config.Config) {
		c.Counter = config.CtrNone
		c.CountersInLLC = false
	}, "canneal", 100_000, 200_000)
	_, mo := run(t, nil, "canneal", 100_000, 200_000)
	if mo.SimulatedTime < ns.SimulatedTime {
		t.Fatalf("morphable (%v) faster than non-secure (%v)", mo.SimulatedTime, ns.SimulatedTime)
	}
	if mo.L2MissLatencyNS < ns.L2MissLatencyNS {
		t.Fatalf("morphable miss latency (%v) below non-secure (%v)", mo.L2MissLatencyNS, ns.L2MissLatencyNS)
	}
}

func TestEMCCRunExercisesAllPaths(t *testing.T) {
	s, res := run(t, func(c *config.Config) { c.EMCC = true }, "canneal", 150_000, 300_000)
	st := s.Stats()
	probes := st.Counter(stats.EmccL2CtrHit) + st.Counter(stats.EmccL2CtrMiss)
	if probes != st.Counter("tsim/l2-data-miss") {
		t.Fatalf("counter probes %d != L2 data misses %d", probes, st.Counter("tsim/l2-data-miss"))
	}
	if st.Counter(stats.EmccDecryptAtL2) == 0 {
		t.Fatal("EMCC never decrypted at L2")
	}
	if res.DecryptAtL2Frac <= 0 || res.DecryptAtL2Frac > 1 {
		t.Fatalf("decrypt-at-L2 fraction = %v", res.DecryptAtL2Frac)
	}
}

// TestDeterminism reruns identical scenarios and requires the results and
// the full stats snapshot to match byte for byte: a single-benchmark EMCC
// run and the 4-core "+"-mix co-run, where each core replays its own stream
// into the shared sliced LLC and same-timestamp contention for one home
// slice is common.
func TestDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		bench  string
		mutate func(*config.Config)
	}{
		{"pageRank-emcc", "pageRank", func(c *config.Config) { c.EMCC = true }},
		{"corun-mcf+canneal", "mcf+canneal", func(c *config.Config) { c.EMCC = true; c.Channels = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			once := func() (Result, []byte) {
				s, res := run(t, tc.mutate, tc.bench, 80_000, 150_000)
				snap, err := s.Stats().Snapshot().StableJSON()
				if err != nil {
					t.Fatal(err)
				}
				return res, snap
			}
			a, aSnap := once()
			b, bSnap := once()
			if a.SimulatedTime != b.SimulatedTime || a.Instructions != b.Instructions {
				t.Fatalf("identical configs diverged: %v/%v vs %v/%v",
					a.SimulatedTime, a.Instructions, b.SimulatedTime, b.Instructions)
			}
			if string(aSnap) != string(bSnap) {
				t.Fatal("identical configs produced different stats snapshots")
			}
		})
	}
}

func TestXPTSpeedsUpMisses(t *testing.T) {
	_, off := run(t, nil, "canneal", 100_000, 200_000)
	_, on := run(t, func(c *config.Config) { c.XPT = true }, "canneal", 100_000, 200_000)
	if on.L2MissLatencyNS >= off.L2MissLatencyNS {
		t.Fatalf("XPT did not reduce L2 miss latency: %.1f vs %.1f",
			on.L2MissLatencyNS, off.L2MissLatencyNS)
	}
}

func TestSC64GeneratesOverflowTraffic(t *testing.T) {
	s, _ := run(t, func(c *config.Config) { c.Counter = config.CtrSC64 }, "canneal", 150_000, 400_000)
	if s.st.Counter("overflow/events") == 0 {
		t.Skip("no overflow at this scale; acceptable but unusual")
	}
	if s.st.Counter("dram/access/overflow-l0/read") == 0 {
		t.Fatal("overflow happened but produced no DRAM traffic")
	}
}

func TestMoreChannelsReduceQueuing(t *testing.T) {
	_, ch1 := run(t, nil, "mcf", 100_000, 200_000)
	_, ch8 := run(t, func(c *config.Config) { c.Channels = 8 }, "mcf", 100_000, 200_000)
	if ch8.SimulatedTime > ch1.SimulatedTime {
		t.Fatalf("8 channels slower than 1: %v vs %v", ch8.SimulatedTime, ch1.SimulatedTime)
	}
}

func TestBandwidthFractionsSane(t *testing.T) {
	_, res := run(t, nil, "mcf", 100_000, 200_000)
	var total float64
	for _, v := range res.BusyFraction {
		if v < 0 {
			t.Fatalf("negative utilisation: %+v", res.BusyFraction)
		}
		total += v
	}
	if total > 1.01 {
		t.Fatalf("total utilisation %v exceeds 100%%", total)
	}
}

func TestWarmupReducesColdMisses(t *testing.T) {
	cold, warm := int64(0), int64(0)
	{
		s, _ := run(t, nil, "omnetpp", 100_000, 0)
		cold = s.st.Counter("tsim/llc-data-miss")
	}
	{
		s, _ := run(t, nil, "omnetpp", 100_000, 400_000)
		warm = s.st.Counter("tsim/llc-data-miss")
	}
	if warm >= cold {
		t.Fatalf("warmup did not reduce misses: cold=%d warm=%d", cold, warm)
	}
}

func TestEveryPrimaryBenchmarkRuns(t *testing.T) {
	for _, b := range workload.PrimaryNames() {
		b := b
		t.Run(b, func(t *testing.T) {
			_, res := run(t, func(c *config.Config) { c.EMCC = true }, b, 40_000, 80_000)
			if res.SimulatedTime <= 0 {
				t.Fatalf("%s produced no simulated time", b)
			}
		})
	}
}

func TestDynamicOffOnCacheResidentWorkload(t *testing.T) {
	// exchange2_s is cache-resident (512 KB footprint): after its cold
	// start, the Sec. IV-F monitor should observe almost no DRAM fills
	// and turn EMCC off.
	cfg := config.Default()
	cfg.EMCC = true
	cfg.EMCCDynamicOff = true
	s, err := New(&cfg, Options{
		Benchmark: "exchange2_s", Seed: 3, Refs: 600_000, Warmup: 400_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	off := 0
	for _, l2 := range s.l2s {
		if l2.monitor == nil {
			t.Fatal("monitor not installed")
		}
		if !l2.monitor.Enabled() {
			off++
		}
	}
	if off == 0 {
		t.Fatal("intensity monitor never turned EMCC off on a cache-resident app")
	}
}

func TestAblationFlagsChangeBehaviour(t *testing.T) {
	base := func(c *config.Config) { c.EMCC = true }
	_, a := run(t, base, "canneal", 80_000, 200_000)
	_, b := run(t, func(c *config.Config) { base(c); c.EMCCDisableAESGate = true }, "canneal", 80_000, 200_000)
	// The ablation must at least produce a different schedule.
	if a.SimulatedTime == b.SimulatedTime {
		t.Skip("gate ablation produced identical timing at this scale")
	}
}

func TestPrefetcherHelpsStreamingWorkload(t *testing.T) {
	// streamcluster is stream-dominated: a degree-2 stride prefetcher
	// should cut its L2 read-miss latency or total time.
	_, off := run(t, nil, "streamcluster", 120_000, 200_000)
	s, on := run(t, func(c *config.Config) { c.PrefetchL2Degree = 2 }, "streamcluster", 120_000, 200_000)
	if s.st.Counter("tsim/l2-prefetch") == 0 {
		t.Fatal("prefetcher never issued")
	}
	if on.SimulatedTime > off.SimulatedTime*105/100 {
		t.Fatalf("prefetching slowed streaming run: %v vs %v", on.SimulatedTime, off.SimulatedTime)
	}
}

func TestCustomGeneratorsDriveTiming(t *testing.T) {
	gens, err := workload.NewSet("canneal", 4, 5, workload.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	space, _ := workload.SpaceBytes("canneal", 4, workload.TestScale())
	cfg := config.Default()
	s, err := New(&cfg, Options{
		Cores: 4, Refs: 40_000, Generators: gens, DataBytes: space,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.SimulatedTime <= 0 {
		t.Fatal("custom-generator run produced no time")
	}
}

func TestCustomGeneratorsValidated(t *testing.T) {
	gens, _ := workload.NewSet("canneal", 2, 5, workload.TestScale())
	cfg := config.Default()
	if _, err := New(&cfg, Options{Cores: 4, Refs: 1, Generators: gens, DataBytes: 1 << 20}); err == nil {
		t.Fatal("generator/core mismatch accepted")
	}
	gens4, _ := workload.NewSet("canneal", 4, 5, workload.TestScale())
	if _, err := New(&cfg, Options{Cores: 4, Refs: 1, Generators: gens4}); err == nil {
		t.Fatal("missing DataBytes accepted")
	}
}

func TestWarmupFillsEMCCCounters(t *testing.T) {
	cfg := config.Default()
	cfg.EMCC = true
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Seed: 3, Refs: 4, Warmup: 400_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.warm(s.opt.Warmup)
	// The warm replay must have populated counters in at least one L2
	// and metadata in the MC's cache.
	total := 0
	for _, l2 := range s.l2s {
		total += l2.c.KindCount(1) + l2.c.KindCount(2) // counter + tree kinds
	}
	if total == 0 {
		t.Fatal("warmup left no counters in any L2")
	}
	if s.mc.home.Meta.Occupancy() == 0 {
		t.Fatal("warmup left the MC metadata cache empty")
	}
}
