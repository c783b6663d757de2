// Command emccsim runs one simulation configuration and prints its
// statistics. It is the low-level tool; cmd/figures regenerates the paper's
// figures from batches of these runs.
//
// Usage:
//
//	emccsim -mode functional -bench canneal -refs 2000000 -system emcc
//	emccsim -mode timing -bench mcf -refs 300000 -system morphable
//	emccsim -mode timing -bench mcf -cache .simcache   # reuse prior results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/prov"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		mode     = flag.String("mode", "functional", "functional (Pintool-style counting) or timing (gem5-style)")
		bench    = flag.String("bench", "canneal", "benchmark name; -list to enumerate")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		system   = flag.String("system", "morphable", "non-secure | sc64 | morphable | emcc | mono | bipbip | insram | <any>+nollc")
		refs     = flag.Int64("refs", 2_000_000, "memory references to replay")
		warm     = flag.Int64("warmup", 0, "functional warmup references before measuring")
		seed     = flag.Uint64("seed", 1, "workload seed")
		small    = flag.Bool("small", false, "use the miniature test scale")
		llcMB    = flag.Int64("llc-mb", 0, "override LLC size in MiB (0 = Table I)")
		ctrKB    = flag.Int64("ctr-kb", 0, "override MC counter cache KiB (0 = Table I)")
		aesNS    = flag.Float64("aes-ns", 0, "override AES latency in ns (0 = Table I)")
		chans    = flag.Int("channels", 0, "override DRAM channel count (0 = Table I)")
		aesFrac  = flag.Float64("aes-frac", -1, "override fraction of AES units moved to L2 (EMCC)")
		l2ctrKB  = flag.Int64("l2ctr-kb", 0, "override EMCC L2 counter cap KiB (0 = default 32)")
		xpt      = flag.Bool("xpt", false, "enable XPT LLC-miss prediction")
		pfDeg    = flag.Int("prefetch", 0, "L2 stride-prefetch degree (0 = off)")
		dynOff   = flag.Bool("dynamic-off", false, "enable the Sec. IV-F intensity monitor (EMCC)")
		asJSON   = flag.Bool("json", false, "emit results as JSON")
		cacheDir = flag.String("cache", "", "directory for the persistent result cache")
	)
	flag.Parse()

	if *list {
		fmt.Println("primary (large/irregular):", strings.Join(workload.PrimaryNames(), " "))
		fmt.Println("regular (Fig 24):", strings.Join(workload.RegularNames(), " "))
		return
	}

	cfg := config.Default()
	if err := config.ApplySystem(&cfg, *system); err != nil {
		fatal(err)
	}
	if *llcMB > 0 {
		cfg.L3Bytes = *llcMB << 20
	}
	if *ctrKB > 0 {
		cfg.CtrCacheBytes = *ctrKB << 10
	}
	if *aesNS > 0 {
		cfg.AESLatency = sim.NS(*aesNS)
	}
	if *chans > 0 {
		cfg.Channels = *chans
	}
	if *aesFrac >= 0 {
		cfg.EMCCAESFraction = *aesFrac
	}
	if *l2ctrKB > 0 {
		cfg.EMCCL2CounterBytes = *l2ctrKB << 10
	}
	cfg.XPT = *xpt
	cfg.PrefetchL2Degree = *pfDeg
	cfg.EMCCDynamicOff = *dynOff

	scale := workload.DefaultScale()
	if *small {
		scale = workload.TestScale()
	}

	var runMode run.Mode
	switch *mode {
	case "functional":
		runMode = run.Functional
	case "timing":
		runMode = run.Timing
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}

	sc := run.Scenario{
		Mode: runMode, Benchmark: *bench, Config: cfg,
		Seed: *seed, Refs: *refs, Warmup: *warm, Scale: scale,
		Label: *bench,
	}

	var cache *run.Cache
	if *cacheDir != "" {
		c, err := run.OpenCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cache = c
	}
	o, executed, err := run.Resolve(&sc, cache)
	if err != nil {
		fatal(err)
	}

	// The manifest describes this invocation, not the (possibly cached)
	// execution, so it overwrites whatever provenance rode along in the
	// cache entry.
	manifest := prov.Manifest(&cfg, map[string]string{
		"tool":      "emccsim",
		"mode":      *mode,
		"benchmark": *bench,
		"seed":      fmt.Sprint(*seed),
		"refs":      fmt.Sprint(*refs),
		"warmup":    fmt.Sprint(*warm),
		"scenario":  sc.Key(),
		"cached":    fmt.Sprint(!executed),
	})
	o.Stats.Provenance = manifest

	switch runMode {
	case run.Functional:
		if *asJSON {
			emitJSON(map[string]interface{}{
				"mode": "functional", "system": cfg.SystemName(), "benchmark": *bench,
				"refs": *refs, "stats": o.Stats,
			})
			return
		}
		fmt.Printf("# functional %s on %s, %d refs\n", cfg.SystemName(), *bench, *refs)
		fmt.Printf("# %s\n", prov.Line(manifest))
		fmt.Print(o.Stats.Dump())
	case run.Timing:
		res := o.Timing
		if *asJSON {
			util := map[string]float64{}
			for k, v := range res.BusyFraction {
				util[k.String()] = v
			}
			emitJSON(map[string]interface{}{
				"mode": "timing", "system": cfg.SystemName(), "benchmark": *bench,
				"refs": *refs, "simulated_ms": res.SimulatedTime.Nanoseconds() / 1e6,
				"instructions": res.Instructions, "ipc": res.IPC,
				"l2_miss_latency_ns": res.L2MissLatencyNS,
				"decrypt_at_l2_frac": res.DecryptAtL2Frac,
				"dram_util":          util,
				"stats":              o.Stats,
			})
			return
		}
		fmt.Printf("# timing %s on %s, %d refs\n", cfg.SystemName(), *bench, *refs)
		fmt.Printf("# %s\n", prov.Line(manifest))
		fmt.Printf("simulated-time-ms            %.3f\n", res.SimulatedTime.Nanoseconds()/1e6)
		fmt.Printf("instructions                 %d\n", res.Instructions)
		fmt.Printf("ipc                          %.3f\n", res.IPC)
		fmt.Printf("l2-miss-latency-ns           %.2f\n", res.L2MissLatencyNS)
		fmt.Printf("decrypt-at-l2-frac           %.3f\n", res.DecryptAtL2Frac)
		for k, v := range res.BusyFraction {
			fmt.Printf("dram-util/%-18s %.3f\n", k, v)
		}
		fmt.Print(o.Stats.Dump())
	}
}

func emitJSON(v interface{}) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emccsim:", err)
	os.Exit(1)
}
