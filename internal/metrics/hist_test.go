package metrics

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	// The exact range: bucket i holds only value i.
	for v := int64(0); v < linearBuckets; v++ {
		if got := BucketIndex(v); got != int(v) {
			t.Fatalf("BucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	// Every bucket's bounds contain exactly the values that map to it.
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketLo(i), BucketUpper(i)
		if hi <= lo {
			t.Fatalf("bucket %d: upper %d ≤ lo %d", i, hi, lo)
		}
		if i > 0 && lo != BucketUpper(i-1) {
			t.Fatalf("bucket %d: lo %d ≠ previous upper %d", i, lo, BucketUpper(i-1))
		}
		for _, v := range []int64{lo, hi - 1} {
			want := i
			if got := BucketIndex(v); got != want {
				t.Fatalf("BucketIndex(%d) = %d, want bucket %d [%d,%d)", v, got, want, lo, hi)
			}
		}
	}
	// The top bucket clamps everything at and beyond the ceiling.
	if BucketUpper(NumBuckets-1) != histCeiling {
		t.Fatalf("top bucket upper = %d, want %d", BucketUpper(NumBuckets-1), histCeiling)
	}
	for _, v := range []int64{histCeiling, histCeiling + 1, 1 << 40, 1<<62 + 12345} {
		if got := BucketIndex(v); got != NumBuckets-1 {
			t.Fatalf("BucketIndex(%d) = %d, want clamp to %d", v, got, NumBuckets-1)
		}
	}
	// Negative values clamp to zero.
	if BucketIndex(-5) != 0 {
		t.Fatalf("BucketIndex(-5) = %d, want 0", BucketIndex(-5))
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Above the exact range the half-octave buckets keep relative width
	// (upper-lo)/lo at most 50% (i.e. quantile error ≤ ~33% of the value).
	for i := linearBuckets; i < NumBuckets; i++ {
		lo, hi := BucketLo(i), BucketUpper(i)
		if float64(hi-lo)/float64(lo) > 0.5+1e-9 {
			t.Fatalf("bucket %d [%d,%d): relative width %.3f > 0.5", i, lo, hi, float64(hi-lo)/float64(lo))
		}
	}
}

func TestObserveAndQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// 100 samples of exact values 0..99: exact buckets up to 31, then log.
	for v := int64(0); v < 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Sum() != 99*100/2 || h.Max() != 99 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
	// p10 lands in the exact range: 10th sample is value 9.
	if got := h.Quantile(0.10); got != 9 {
		t.Fatalf("p10 = %d, want 9", got)
	}
	// p100 is the exact max, not a bucket bound.
	if got := h.Quantile(1.0); got != 99 {
		t.Fatalf("p100 = %d, want 99", got)
	}
	// Monotone across the quantile grid, bounded by max.
	qs := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	prev := int64(-1)
	for _, q := range qs {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%g gives %d after %d", q, v, prev)
		}
		if v > h.Max() {
			t.Fatalf("quantile %g = %d exceeds max %d", q, v, h.Max())
		}
		prev = v
	}
	// A quantile estimate never undershoots the true value's bucket lower
	// bound: for a point mass everything collapses to the exact value range.
	var p Hist
	for i := 0; i < 1000; i++ {
		p.Observe(70_000)
	}
	lo, hi := BucketLo(BucketIndex(70_000)), BucketUpper(BucketIndex(70_000))
	if got := p.Quantile(0.5); got < lo || got >= hi {
		t.Fatalf("point-mass p50 = %d outside bucket [%d,%d)", got, lo, hi)
	}
	if got := p.Quantile(0.99); got != p.Quantile(0.5) {
		t.Fatalf("point mass quantiles differ: %d vs %d", got, p.Quantile(0.5))
	}
}

func TestNegativeObserveClamps(t *testing.T) {
	var h Hist
	h.Observe(-100)
	if h.Count() != 1 || h.Sum() != 0 || h.Max() != 0 || h.Bucket(0) != 1 {
		t.Fatalf("negative sample should clamp to 0: %+v", h.Snapshot())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var h Hist
		n := rng.Intn(1000)
		for i := 0; i < n; i++ {
			h.Observe(rng.Int63n(histCeiling * 2))
		}
		enc := h.AppendBinary(nil)
		dec, err := DecodeHist(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if *dec != h {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
		// Canonical: re-encoding is byte-identical.
		if !bytes.Equal(dec.AppendBinary(nil), enc) {
			t.Fatalf("trial %d: re-encode not canonical", trial)
		}
	}
	// Empty histogram round-trips too.
	var empty Hist
	dec, err := DecodeHist(empty.AppendBinary(nil))
	if err != nil || dec.Count() != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	var h Hist
	for i := int64(0); i < 100; i++ {
		h.Observe(i * 17)
	}
	valid := h.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, valid[1:]...),
		"truncated":   valid[:len(valid)-1],
		"trailing":    append(append([]byte{}, valid...), 0),
		"count mismatch": func() []byte {
			// Bump the count varint (byte 1 on a small histogram).
			b := append([]byte{}, valid...)
			b[1]++
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := DecodeHist(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestSnapshotTrimsAndQuantiles(t *testing.T) {
	var h Hist
	h.Observe(3)
	h.Observe(40)
	s := h.Snapshot()
	want := BucketIndex(40) + 1
	if len(s.Buckets) != want {
		t.Fatalf("snapshot kept %d buckets, want %d", len(s.Buckets), want)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if s.Quantile(q) != h.Quantile(q) {
			t.Fatalf("snapshot quantile %g = %d, hist says %d", q, s.Quantile(q), h.Quantile(q))
		}
	}
	if s.Mean() != h.Mean() {
		t.Fatalf("snapshot mean %g ≠ %g", s.Mean(), h.Mean())
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

func TestObserveAllocFree(t *testing.T) {
	var h Hist
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

func BenchmarkHistObserve(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 0xfffff)
	}
}

func BenchmarkHistQuantile(b *testing.B) {
	var h Hist
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		h.Observe(rng.Int63n(1 << 21))
	}
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += h.Quantile(0.99)
	}
	_ = sink
}
