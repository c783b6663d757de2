package check

import (
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// ExposedDecryptTail reads the paper's central claim off the tail of the
// distribution rather than the mean: at the reference scale — where the MC
// counter cache actually misses — EMCC's p99 exposed decrypt/verify time
// must not exceed the Morphable baseline's — and a p99 tie (both tails in
// one log-bucket at reduced budgets) falls back to the exact-sum mean,
// which must be strictly below. The mean version lives in tsim's tests;
// the tail version matters because eager decryption is a latency-hiding
// technique, and hiding that only helped the median would be a much
// weaker result than the paper claims. Runs at DefaultScale on purpose:
// the miniature test scale lets the counter cache cover the whole
// footprint, leaving the baseline nothing to hide (see tsim/tracing_test).
func ExposedDecryptTail(opt Options) Result {
	const name = "tsim-exposed-decrypt-p99"
	opt = opt.withDefaults()

	tail := func(system string) (p99 int64, mean float64, n int64, err error) {
		cfg, err := systemConfig(system)
		if err != nil {
			return 0, 0, 0, err
		}
		obsSt := stats.NewSet()
		trc := obs.New(obs.Options{Stats: obsSt, Sample: 1})
		ts, err := tsim.New(&cfg, tsim.Options{
			Benchmark: opt.Benchmark, Cores: opt.Cores, Seed: opt.Seed,
			Refs: opt.Refs, Warmup: opt.Refs, Scale: workload.DefaultScale(),
		})
		if err != nil {
			return 0, 0, 0, err
		}
		ts.SetTracer(trc)
		ts.Run()
		h := obsSt.Hist(stats.ObsExposedDecryptHist)
		return h.Quantile(0.99), h.Mean(), h.Count(), nil
	}

	emcc, meanE, nE, err := tail("emcc")
	if err != nil {
		return failf(PillarMetamorphic, name, "emcc: %v", err)
	}
	morph, meanM, nM, err := tail("morphable")
	if err != nil {
		return failf(PillarMetamorphic, name, "morphable: %v", err)
	}
	if nE == 0 || nM == 0 {
		return failf(PillarMetamorphic, name, "missing exposure samples: emcc n=%d morphable n=%d", nE, nM)
	}
	if emcc > morph {
		return failf(PillarMetamorphic, name,
			"emcc p99 exposed decrypt %d ns above morphable %d ns (n=%d/%d)", emcc, morph, nE, nM)
	}
	// A p99 tie means both tails land in one histogram bucket — a
	// resolution artifact at reduced (-quick) budgets, not a verdict. The
	// exact-sum mean breaks it: EMCC must still hide strictly more.
	if emcc == morph && meanE >= meanM {
		return failf(PillarMetamorphic, name,
			"emcc p99 ties morphable at %d ns and mean %.2f ns not below %.2f ns (n=%d/%d)",
			emcc, meanE, meanM, nE, nM)
	}
	return passf(PillarMetamorphic, name,
		"emcc p99 exposed decrypt %d ns <= morphable %d ns, mean %.2f < %.2f ns (n=%d/%d)",
		emcc, morph, meanE, meanM, nE, nM)
}
