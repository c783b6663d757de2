package check

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/inv"
	"repro/internal/sim"
)

// quickOpt keeps the harness tests fast; the full budget runs in cmd/check.
var quickOpt = Options{Refs: 20_000}

// TestDifferentialPasses is the pillar's happy path: identical configs
// through both simulators, plus secmem agreement.
func TestDifferentialPasses(t *testing.T) {
	requireAllPass(t, Differential(quickOpt))
}

// TestDifferentialDetectsMismatchedConfigs proves the pillar can fail:
// replaying the same trace through a secure fsim and a non-secure tsim must
// trip the counter-traffic rules (the non-secure machine performs no
// counter reads at all).
func TestDifferentialDetectsMismatchedConfigs(t *testing.T) {
	opt := quickOpt.withDefaults()
	tr, err := recordTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	secure := config.Default()
	broken := config.Default()
	broken.Counter = config.CtrNone
	broken.CountersInLLC = false
	rs := CompareTraceRun("morphable", &secure, &broken, tr, opt)
	if failedNamed(rs, "morphable/dram-counter-read") == 0 {
		t.Fatalf("secure-vs-non-secure replay not detected:\n%s", render(rs))
	}
}

// TestMetamorphicPasses covers the analytic grid and the tsim properties.
func TestMetamorphicPasses(t *testing.T) {
	requireAllPass(t, Metamorphic(quickOpt))
}

// TestTimelineDetectsBrokenEMCC proves the timeline property can fail: a
// config whose serial lookup delay J dwarfs every other latency makes EMCC
// lose its own analytic timelines, and timelineEMCCLoss must say so.
func TestTimelineDetectsBrokenEMCC(t *testing.T) {
	cfg := config.Default()
	cfg.EMCCLookupDelay = sim.NS(500)
	loss := timelineEMCCLoss(&cfg)
	if loss == "" {
		t.Fatal("J=500 ns config not flagged: EMCC cannot win with a 500 ns serial lookup")
	}
	if !strings.Contains(loss, "emcc") {
		t.Fatalf("loss description %q does not name the losing side", loss)
	}
}

// TestMonotonicityDetectsRegression proves the runtime-monotonicity
// assertion fails on a decreasing series.
func TestMonotonicityDetectsRegression(t *testing.T) {
	r := assertNonDecreasing("demo", "fabricated", []sim.Time{100, 90})
	if r.Pass {
		t.Fatal("decreasing runtime series not flagged")
	}
}

// TestBipBipInvarianceDetectsLiveKnob proves the knob-invariance check can
// fail: the cipher latency is the one knob CtrBipBip genuinely depends on,
// so perturbing it must break byte-identity.
func TestBipBipInvarianceDetectsLiveKnob(t *testing.T) {
	r := bipbipInvarianceOver(quickOpt, []knobPerturbation{
		{"bipbip-latency-2x", func(c *config.Config) { c.BipBipLatency *= 2 }},
	})
	if r.Pass {
		t.Fatalf("doubling the bipbip cipher latency not detected: %s", r.Detail)
	}
}

// TestInvariantsPass runs both simulators under the recorder over every
// system and requires zero violations plus exact conservation.
func TestInvariantsPass(t *testing.T) {
	requireAllPass(t, Invariants(quickOpt))
}

// TestInvariantDetectsBrokenConfig proves the pillar can fail: a negative
// EMCC lookup delay passes config.Validate (which doesn't model policy
// sanity) but trips emcc.NewPolicy's gated check when tsim builds the
// policy under the recorder.
func TestInvariantDetectsBrokenConfig(t *testing.T) {
	opt := quickOpt.withDefaults()
	tr, err := recordTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.EMCC = true
	cfg.EMCCLookupDelay = -sim.NS(1)
	rs := InvariantRun("broken-emcc", &cfg, tr, opt)
	if failedNamed(rs, "broken-emcc/tsim-violations") == 0 {
		t.Fatalf("negative EMCCLookupDelay not recorded as a violation:\n%s", render(rs))
	}
}

// TestConservationDetectsImbalance proves the conservation assertion fails
// on unequal pairs.
func TestConservationDetectsImbalance(t *testing.T) {
	if conserve("demo", "fabricated", 1, 2).Pass {
		t.Fatal("1 != 2 not flagged")
	}
}

// TestRunAggregates checks Run wires all three pillars together and that
// Failed counts correctly on the all-green suite.
func TestRunAggregates(t *testing.T) {
	rs := Run(quickOpt)
	pillars := map[Pillar]bool{}
	for _, r := range rs {
		pillars[r.Pillar] = true
	}
	for _, p := range []Pillar{PillarDifferential, PillarMetamorphic, PillarInvariant} {
		if !pillars[p] {
			t.Fatalf("pillar %s missing from Run output", p)
		}
	}
	if n := Failed(rs); n != 0 {
		t.Fatalf("%d checks failed:\n%s", n, render(rs))
	}
}

func requireAllPass(t *testing.T, rs []Result) {
	t.Helper()
	if Failed(rs) > 0 {
		t.Fatalf("failures:\n%s", render(rs))
	}
	if len(rs) == 0 {
		t.Fatal("no results produced")
	}
}

func failedNamed(rs []Result, name string) int {
	n := 0
	for _, r := range rs {
		if !r.Pass && r.Name == name {
			n++
		}
	}
	return n
}

func render(rs []Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMain leaves the recorder disabled no matter how a test exits, so
// other packages' tests in the same binary are unaffected.
func TestMain(m *testing.M) {
	defer inv.Enable(false)
	m.Run()
}
