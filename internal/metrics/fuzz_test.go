package metrics

import (
	"bytes"
	"testing"
)

// FuzzHistDecodeMerge throws arbitrary bytes at the histogram decoder.
// Anything that decodes must be internally consistent: canonical
// re-encoding and monotone quantiles bounded by the maximum. (The name
// predates the removal of Hist.Merge; it is kept so the checked-in seed
// corpus under testdata/fuzz keeps resolving.)
func FuzzHistDecodeMerge(f *testing.F) {
	// Seed corpus: valid encodings across the geometry's regimes.
	var empty Hist
	f.Add(empty.AppendBinary(nil))
	var exact Hist
	for v := int64(0); v < 32; v++ {
		exact.Observe(v)
	}
	f.Add(exact.AppendBinary(nil))
	var logRange Hist
	for v := int64(1); v < 1<<20; v *= 3 {
		logRange.Observe(v)
	}
	f.Add(logRange.AppendBinary(nil))
	var clamped Hist
	clamped.Observe(histCeiling + 999)
	clamped.Observe(1 << 40)
	f.Add(clamped.AppendBinary(nil))
	// And a few invalid shapes so the fuzzer starts near the edges.
	f.Add([]byte{})
	f.Add([]byte{histCodecVersion})
	f.Add([]byte{99, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHist(data)
		if err != nil {
			return
		}
		// Canonical: decode → encode reproduces the input bytes exactly.
		enc := h.AppendBinary(nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\nin  %x\nout %x", data, enc)
		}
		// Quantiles are monotone and bounded by max.
		prev := int64(-1)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("quantile regression at q=%g: %d after %d", q, v, prev)
			}
			if v > h.Max() {
				t.Fatalf("quantile %g = %d above max %d", q, v, h.Max())
			}
			prev = v
		}
	})
}
