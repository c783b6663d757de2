package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestCounters(t *testing.T) {
	s := NewSet()
	s.Inc("a")
	s.Add("a", 4)
	if got := s.Counter("a"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := s.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestAccumulator(t *testing.T) {
	s := NewSet()
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe("lat", v)
	}
	a := s.Accum("lat")
	if a.Count != 4 || a.Mean() != 2.5 || a.Min != 1 || a.Max != 4 {
		t.Fatalf("accum = %+v mean=%v", a, a.Mean())
	}
	if s.Accum("missing").Mean() != 0 {
		t.Fatal("missing accum mean should be 0")
	}
}

func TestHistCells(t *testing.T) {
	s := NewSet()
	h := s.HistRef("lat")
	for _, v := range []int64{3, 40, 40, 5000} {
		h.Observe(v)
	}
	// HistRef returns the same cell; Hist reads it.
	if s.HistRef("lat") != h {
		t.Fatal("HistRef did not return the bound cell")
	}
	if got := s.Hist("lat").Count(); got != 4 {
		t.Fatalf("Hist count = %d, want 4", got)
	}
	if s.Hist("missing").Count() != 0 {
		t.Fatal("missing hist should read as empty")
	}
	// Bound-but-empty cells stay invisible; observed ones show up.
	s.HistRef("never-observed")
	names := s.Names()
	want := []string{"hist/lat"}
	if len(names) != 1 || names[0] != want[0] {
		t.Fatalf("names = %v, want %v", names, want)
	}
}

func TestReset(t *testing.T) {
	s := NewSet()
	s.Inc("a")
	s.Observe("b", 1)
	s.HistRef("c").Observe(5)
	s.Reset()
	if s.Counter("a") != 0 || s.Accum("b").Count != 0 {
		t.Fatal("reset did not clear metrics")
	}
	if len(s.Names()) != 0 {
		t.Fatalf("names after reset: %v", s.Names())
	}
}

// TestResetKeepsBoundCells: a cell handed out before Reset records into
// the live set after it, so components bind once at construction.
func TestResetKeepsBoundCells(t *testing.T) {
	s := NewSet()
	c, a, h := s.CounterRef("c"), s.AccumRef("a"), s.HistRef("h")
	*c += 7
	a.Observe(3)
	h.Observe(40)
	s.Reset()
	*c++
	a.Observe(9)
	h.Observe(5)
	if got := s.Counter("c"); got != 1 {
		t.Fatalf("counter after reset = %d, want 1", got)
	}
	if got := s.Accum("a"); got.Count != 1 || got.Min != 9 || got.Max != 9 || got.Sum != 9 {
		t.Fatalf("accum after reset = %+v, want one sample of 9", got)
	}
	if got := s.Hist("h"); got.Count() != 1 || got.Max() != 5 {
		t.Fatalf("hist after reset: count %d max %d, want 1 and 5", got.Count(), got.Max())
	}
	if s.CounterRef("c") != c || s.AccumRef("a") != a || s.HistRef("h") != h {
		t.Fatal("Reset replaced a bound cell")
	}
}

// TestResetMatchesFreshSet: a reset set and a fresh one, given the same
// traffic after the reset, are indistinguishable through Snapshot, Names
// and Dump — including keys recorded only before the reset, and keys
// bound but never recorded.
func TestResetMatchesFreshSet(t *testing.T) {
	warm := func(s *Set) {
		s.Add("only-before", 3)
		s.Inc("both")
		s.Observe("lat-before", 2)
		s.Observe("lat", 100)
		s.HistRef("hist-before").Observe(7)
		s.HistRef("hist").Observe(70)
		s.CounterRef("bound-only")
	}
	traffic := func(s *Set) {
		s.Inc("both")
		s.Add("after", 5)
		s.Observe("lat", 4)
		s.Observe("lat", 6)
		s.HistRef("hist").Observe(12)
	}
	reset := NewSet()
	warm(reset)
	reset.Reset()
	traffic(reset)
	fresh := NewSet()
	traffic(fresh)

	if got, want := reset.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot after reset:\n%+v\nfresh:\n%+v", got, want)
	}
	if got, want := reset.Names(), fresh.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names after reset %v, fresh %v", got, want)
	}
	if got, want := reset.Dump(), fresh.Dump(); got != want {
		t.Fatalf("dump after reset:\n%s\nfresh:\n%s", got, want)
	}
}

// TestResetAccumMatchesFresh: Accum on a key that was reset and not
// observed again answers exactly as on a set that never saw the key (no
// ±Inf sentinels of the emptied cell leak out).
func TestResetAccumMatchesFresh(t *testing.T) {
	s := NewSet()
	s.Observe("a", 5)
	s.AccumRef("bound")
	s.Reset()
	want := *NewSet().Accum("a")
	for _, k := range []string{"a", "bound"} {
		if got := *s.Accum(k); got != want {
			t.Fatalf("Accum(%q) after reset = %+v, fresh set gives %+v", k, got, want)
		}
	}
	if got := s.Accum("a").Mean(); got != 0 {
		t.Fatalf("mean after reset = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean = %v, want 10", got)
	}
	// Non-positive values are skipped.
	if got := GeoMean([]float64{0, -5, 4, 9}); math.Abs(got-6) > 1e-9 {
		t.Fatalf("geomean with skips = %v, want 6", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("geomean of empty should be 0")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("mean = %v, want 3", got)
	}
}

func TestDumpIncludesMetrics(t *testing.T) {
	s := NewSet()
	s.Inc("x/y")
	s.Observe("z", 2)
	d := s.Dump()
	if len(d) == 0 {
		t.Fatal("dump is empty")
	}
}

func TestSnapshotRoundTripsJSON(t *testing.T) {
	s := NewSet()
	s.Add("x", 7)
	s.Observe("y", 2.5)
	s.HistRef("h").Observe(100)
	snap := s.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["x"] != 7 || back.Accums["y"].Mean != 2.5 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Hist("h").Count != 1 || back.Hist("h").Quantile(0.5) != snap.Hist("h").Quantile(0.5) {
		t.Fatalf("histogram lost in round trip: %+v", back.Hists)
	}
	// Snapshot is a copy: mutating the set afterwards must not affect it.
	s.Add("x", 100)
	if snap.Counters["x"] != 7 {
		t.Fatal("snapshot aliases live counters")
	}
}

func TestSnapshotAccessorsMatchSet(t *testing.T) {
	s := NewSet()
	s.Add("hits", 41)
	s.Observe("lat", 3)
	s.Observe("lat", 5)
	snap := s.Snapshot()
	if snap.Counter("hits") != s.Counter("hits") {
		t.Fatalf("Counter mismatch: %d vs %d", snap.Counter("hits"), s.Counter("hits"))
	}
	if snap.AccumMean("lat") != s.Accum("lat").Mean() {
		t.Fatalf("AccumMean mismatch: %g vs %g", snap.AccumMean("lat"), s.Accum("lat").Mean())
	}
	if snap.Counter("absent") != 0 || snap.AccumMean("absent") != 0 {
		t.Fatal("absent metrics not zero")
	}
	var zero Snapshot
	if zero.Counter("x") != 0 || zero.AccumMean("x") != 0 {
		t.Fatal("zero-value snapshot accessors not zero")
	}
}

func TestSnapshotDumpSurvivesRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add("b/count", 3)
	s.Add("a/count", 1)
	s.Observe("c/lat", 7.5)
	s.HistRef("d/hist").Observe(42)
	snap := s.Snapshot()
	if s.Dump() != snap.Dump() {
		t.Fatal("live and snapshot dumps differ")
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Dump() != snap.Dump() {
		t.Fatalf("dump changed across JSON round trip:\n%s\nvs\n%s", snap.Dump(), back.Dump())
	}
}
