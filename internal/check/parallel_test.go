package check

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// TestParallelRunMatchesSerial is the -parallel flag's contract: fanning
// the independent units across goroutines changes wall-clock time only.
// Both simulators are deterministic, so the reports must match to the byte
// — any divergence means a unit shared mutable state it shouldn't have.
func TestParallelRunMatchesSerial(t *testing.T) {
	opt := Options{Refs: 8_000}
	serial := Run(opt)
	opt.Parallel = 4
	par := Run(opt)
	if len(serial) != len(par) {
		t.Fatalf("serial produced %d results, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i].String() != par[i].String() {
			t.Errorf("result %d diverged:\n  serial:   %s\n  parallel: %s", i, serial[i], par[i])
		}
	}
}

// TestTracingWithParallelCheckRace runs a fully traced EMCC tsim
// simulation concurrently with a parallel check suite. It asserts nothing
// beyond completion: its job is to put the tracer's hot paths and the
// fanned-out check units in front of the race detector together
// (`go test -race ./internal/check`).
func TestTracingWithParallelCheckRace(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rs := Run(Options{Refs: 6_000, Parallel: 4})
		if len(rs) == 0 {
			t.Error("parallel check produced no results")
		}
	}()
	go func() {
		defer wg.Done()
		cfg := config.Default()
		cfg.EMCC = true
		var buf bytes.Buffer
		st := stats.NewSet()
		tr := obs.New(obs.Options{
			Stats:        st,
			Writer:       &buf,
			Sample:       4,
			TopN:         8,
			SamplePeriod: sim.Microsecond,
		})
		s, err := tsim.New(&cfg, tsim.Options{
			Benchmark: "canneal", Refs: 10_000, Seed: 3, Scale: workload.TestScale(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		s.SetTracer(tr)
		s.Run()
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
		if st.Counter("obs/req-traced") == 0 {
			t.Error("traced run recorded no requests")
		}
	}()
	wg.Wait()
}
