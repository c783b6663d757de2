// Command trace runs one timing simulation with per-request critical-path
// tracing enabled (internal/obs) and writes a Chrome/Perfetto trace_event
// file, a provenance sidecar, and a latency-attribution report with the
// top-N slowest requests.
//
// Usage:
//
//	trace -system emcc -bench canneal -refs 200000 -out trace.json
//	trace -system morphable -bench mcf -refs 200000 -sample 16 -out m.json
//	trace -flight flight.csv -flight-period-ns 10000   # interval time series
//	trace -openmetrics metrics.prom                    # final-snapshot exposition
//
// Open the output at https://ui.perfetto.dev (or chrome://tracing): each
// core is a process, each in-flight request a thread pair — the data lane
// and the crypto lane — so EMCC's decrypt overlap is visible as parallel
// bars. <out>.prov.json records what produced the file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		system   = flag.String("system", "emcc", "non-secure | sc64 | morphable | emcc | mono | bipbip | insram | <any>+nollc")
		bench    = flag.String("bench", "canneal", "synthetic benchmark")
		refs     = flag.Int64("refs", 200_000, "memory references to replay")
		warm     = flag.Int64("warmup", 0, "warmup references before measuring")
		seed     = flag.Uint64("seed", 1, "workload seed")
		cores    = flag.Int("cores", 0, "simulated cores (0 = config default)")
		small    = flag.Bool("small", false, "use the miniature test scale")
		out      = flag.String("out", "trace.json", "Chrome trace output path")
		topN     = flag.Int("top", 10, "slowest requests to report")
		sample   = flag.Uint64("sample", 1, "trace every Nth request (1 = all)")
		periodNS = flag.Float64("sample-period-ns", 1000, "time-series sampling period in ns (0 = off)")

		flight         = flag.String("flight", "", "flight-recorder output path (.json = JSON, else CSV; empty = off)")
		flightPeriodNS = flag.Float64("flight-period-ns", 10_000, "flight-recorder interval in ns")
		flightCap      = flag.Int("flight-cap", 1<<16, "flight-recorder ring capacity (oldest intervals drop)")
		openmetrics    = flag.String("openmetrics", "", "OpenMetrics text-exposition output path (empty = off)")
	)
	flag.Parse()

	cfg := config.Default()
	if err := config.ApplySystem(&cfg, *system); err != nil {
		fatal(err)
	}
	scale := workload.DefaultScale()
	if *small {
		scale = workload.TestScale()
	}

	// The scenario is the canonical run description; its key names the
	// simulation this trace came from, so a trace can be matched to the
	// figure/report runs (and cache entries) built from the same scenario.
	sc := run.Scenario{
		Mode: run.Timing, Benchmark: *bench, Config: cfg,
		Seed: *seed, Refs: *refs, Warmup: *warm, Cores: *cores, Scale: scale,
		Label: *bench,
	}
	manifest := prov.Manifest(&cfg, map[string]string{
		"tool":      "trace",
		"benchmark": *bench,
		"seed":      fmt.Sprint(*seed),
		"refs":      fmt.Sprint(*refs),
		"warmup":    fmt.Sprint(*warm),
		"sample":    fmt.Sprint(*sample),
		"scenario":  sc.Key(),
		"out":       *out,
	})

	s, err := sc.NewTiming()
	if err != nil {
		fatal(err)
	}
	s.Stats().SetProvenance(manifest)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	// The Chrome file's otherData block carries the masked manifest so the
	// trace stream stays byte-deterministic for a fixed seed; the full
	// manifest (wall time, toolchain, revision) goes to the sidecar.
	tr := obs.New(obs.Options{
		Stats:        s.Stats(),
		Writer:       f,
		Sample:       *sample,
		TopN:         *topN,
		SamplePeriod: sim.NS(*periodNS),
		Meta:         prov.Masked(manifest),
	})
	s.SetTracer(tr)
	var rec *metrics.Recorder
	if *flight != "" {
		rec = metrics.NewRecorder(s.Stats(), *flightCap)
		s.SetFlightRecorder(rec, sim.NS(*flightPeriodNS))
	}
	res := s.Run()
	if err := tr.Close(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	sidecar, err := prov.JSON(manifest)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out+".prov.json", sidecar, 0o644); err != nil {
		fatal(err)
	}
	if rec != nil {
		if err := writeFlight(*flight, rec); err != nil {
			fatal(err)
		}
	}
	if *openmetrics != "" {
		if err := writeOpenMetrics(*openmetrics, s.Stats()); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("# trace %s on %s, %d refs → %s\n", cfg.SystemName(), *bench, *refs, *out)
	fmt.Printf("# %s\n", prov.Line(manifest))
	fmt.Printf("simulated-time-ms            %.3f\n", float64(res.SimulatedTime.Nanoseconds())/1e6)
	fmt.Printf("ipc                          %.3f\n", res.IPC)
	fmt.Println()
	obs.WriteSummary(os.Stdout, s.Stats())
	obs.WriteTopRequests(os.Stdout, tr.TopRequests())
}

// writeFlight dumps the recorder's interval series: JSON when the path
// says so, CSV otherwise.
func writeFlight(path string, rec *metrics.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = rec.WriteJSON(f)
	} else {
		err = rec.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeOpenMetrics dumps the final stats snapshot — counters, accumulators
// and latency histograms — in OpenMetrics text exposition.
func writeOpenMetrics(path string, st *stats.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = st.Snapshot().WriteOpenMetrics(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}
