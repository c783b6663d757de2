package tsim

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// flightRun executes one fixed scenario with a flight recorder attached
// and returns the CSV and JSON dumps.
func flightRun(t *testing.T, capacity int) (*metrics.Recorder, []byte, []byte) {
	t.Helper()
	cfg := config.Default()
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Cores: 2, Seed: 9, Refs: 20_000, Warmup: 5_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder(s.Stats(), capacity)
	s.SetFlightRecorder(rec, 5*sim.Microsecond)
	s.Run()
	var csv, js bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return rec, csv.Bytes(), js.Bytes()
}

// TestFlightRecorderDeterminism is the flight-recorder golden property:
// the interval series is byte-identical across reruns at a fixed seed and
// across concurrent executions (each Sim owns its engine and stats set,
// which is exactly why run.Execute is byte-identical at any -j).
func TestFlightRecorderDeterminism(t *testing.T) {
	rec, csv0, js0 := flightRun(t, 1<<14)
	if len(rec.Intervals()) < 3 {
		t.Fatalf("only %d intervals recorded — period too coarse for the scenario", len(rec.Intervals()))
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%d intervals dropped with a large ring", rec.Dropped())
	}
	// The series must actually carry signal: at least one interval with a
	// counter delta and one with a histogram delta (dram qdelay).
	var sawCounter, sawHist bool
	for _, iv := range rec.Intervals() {
		sawCounter = sawCounter || len(iv.Counters) > 0
		sawHist = sawHist || len(iv.Hists) > 0
	}
	if !sawCounter || !sawHist {
		t.Fatalf("flight series empty: counters=%v hists=%v", sawCounter, sawHist)
	}

	// Rerun serially and 4× concurrently; every dump must be byte-equal.
	const workers = 4
	csvs := make([][]byte, workers)
	jss := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, csvs[w], jss[w] = flightRun(t, 1<<14)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !bytes.Equal(csv0, csvs[w]) {
			t.Fatalf("concurrent run %d produced a different CSV series", w)
		}
		if !bytes.Equal(js0, jss[w]) {
			t.Fatalf("concurrent run %d produced a different JSON series", w)
		}
	}
}

// TestFlightRecorderBoundedRing drives the same scenario into a tiny ring:
// old intervals fall out, the drop counter in the stats set agrees with
// the recorder, and the retained window is the run's tail.
func TestFlightRecorderBoundedRing(t *testing.T) {
	big, _, _ := flightRun(t, 1<<14)
	total := len(big.Intervals())
	if total < 8 {
		t.Skipf("scenario too short for ring test: %d intervals", total)
	}
	const capacity = 4
	cfg := config.Default()
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Cores: 2, Seed: 9, Refs: 20_000, Warmup: 5_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder(s.Stats(), capacity)
	s.SetFlightRecorder(rec, 5*sim.Microsecond)
	s.Run()
	ivs := rec.Intervals()
	if len(ivs) != capacity {
		t.Fatalf("ring holds %d intervals, want %d", len(ivs), capacity)
	}
	if want := int64(total - capacity); rec.Dropped() != want {
		t.Fatalf("dropped = %d, want %d", rec.Dropped(), want)
	}
	// The survivors are the newest intervals, in order.
	if ivs[0].Index != int64(total-capacity) || ivs[capacity-1].Index != int64(total-1) {
		t.Fatalf("survivor window %d..%d, want %d..%d",
			ivs[0].Index, ivs[capacity-1].Index, total-capacity, total-1)
	}
	// And the stats set saw the same counts through the wired counters.
	if got := s.Stats().Counter(stats.FlightIntervals); got != int64(total) {
		t.Fatalf("flight/intervals = %d, want %d", got, total)
	}
	if got := s.Stats().Counter(stats.FlightDropped); got != rec.Dropped() {
		t.Fatalf("flight/dropped = %d, recorder says %d", got, rec.Dropped())
	}
}
