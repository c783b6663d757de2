package fsim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestReplayAllocatesNothing pins fsim's steady state at zero allocations:
// after warmup, replaying 40k references through the cache hierarchy and
// the bound stats cells allocates nothing. Only the designs without a
// metadata home are pinned. The counter-backed designs allocate whenever
// a reference first touches a counter block: the counter organisations
// keep sparse `blocks` maps and the integrity tree a sparse `macs` map,
// both filled on demand.
func TestReplayAllocatesNothing(t *testing.T) {
	for _, sys := range []string{"non-secure", "bipbip", "insram"} {
		t.Run(sys, func(t *testing.T) {
			cfg := config.Default()
			if err := config.ApplySystem(&cfg, sys); err != nil {
				t.Fatal(err)
			}
			s, err := New(&cfg, Options{Benchmark: "pageRank", Seed: 7, Scale: workload.TestScale()})
			if err != nil {
				t.Fatal(err)
			}
			s.replay(400_000)
			s.st.Reset()
			if n := testing.AllocsPerRun(3, func() { s.replay(40_000) }); n != 0 {
				t.Fatalf("%s: %v allocs per 40k-reference replay, want 0", sys, n)
			}
		})
	}
}
