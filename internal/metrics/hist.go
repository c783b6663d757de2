// Package metrics holds the first-class telemetry primitives the
// simulators record distributions and time series into: a fixed-geometry
// log-bucketed latency histogram (hist.go) and an interval flight recorder
// (flight.go). The package is a leaf — it imports nothing from the rest of
// the repository — so internal/stats can embed histogram cells the same
// way it embeds counter cells, and every layer above (obs, dram, tsim,
// figures, check) shares one bucket geometry instead of ad-hoc arrays.
//
// The histogram is built for the hot path: observing a sample is a handful
// of integer operations into a fixed [NumBuckets]int64 array, allocation-
// free and deterministic. Quantiles interpolate within the holding bucket
// (midpoint convention, clamped to the exact maximum), so estimates get
// sub-bucket resolution while p50 ≤ p95 ≤ p99 ≤ max holds by construction.
package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// NumBuckets is the fixed bucket count of every Hist.
const NumBuckets = 64

// Bucket geometry: values are non-negative integers (nanoseconds
// throughout this repository). The first linearBuckets buckets are exact —
// bucket i holds only the value i — covering the sub-32 ns regime where
// cache-hit latencies live. Above that, each power-of-two octave splits
// into two sub-buckets (a pow-2-ish log scale with ≤ 25% relative error),
// up to the maxExp octave; everything at or beyond 2^(maxExp+1) clamps
// into the last bucket, whose true extent is recovered from the exact Max.
const (
	linearBuckets = 32
	firstExp      = 5  // 2^firstExp == linearBuckets
	maxExp        = 20 // last full octave; bucket 63 ends at 2^21
)

// histCeiling is the exclusive upper bound of the second-to-last boundary:
// values below it land in a genuine sub-bucket, values at or above clamp.
const histCeiling = int64(1) << (maxExp + 1) // 2 097 152 ns ≈ 2.1 ms

// Hist is a fixed-geometry log-bucketed histogram of non-negative int64
// samples. The zero value is ready to use. It is not safe for concurrent
// writers (the simulators are single-threaded per stats.Set, like every
// other metric cell).
type Hist struct {
	count   int64
	sum     int64
	max     int64
	buckets [NumBuckets]int64
}

// BucketIndex maps a sample to its bucket. Negative samples clamp to 0
// (latencies cannot be negative; a clamped zero keeps the hot path
// branch-light instead of panicking mid-simulation).
func BucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < linearBuckets {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // k >= firstExp
	if k > maxExp {
		return NumBuckets - 1
	}
	sub := (v >> uint(k-1)) & 1
	return linearBuckets + (k-firstExp)*2 + int(sub)
}

// BucketLo reports the inclusive lower bound of bucket i.
func BucketLo(i int) int64 {
	if i < linearBuckets {
		return int64(i)
	}
	k := firstExp + (i-linearBuckets)/2
	sub := int64((i - linearBuckets) % 2)
	return int64(1)<<uint(k) + sub<<uint(k-1)
}

// BucketUpper reports the exclusive upper bound of bucket i. The last
// bucket additionally holds every clamped sample ≥ its nominal bound, so
// its reported quantile is always clamped to the exact Max.
func BucketUpper(i int) int64 {
	if i < linearBuckets {
		return int64(i) + 1
	}
	k := firstExp + (i-linearBuckets)/2
	return BucketLo(i) + int64(1)<<uint(k-1)
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[BucketIndex(v)]++
}

// Count reports the number of samples observed.
func (h *Hist) Count() int64 { return h.count }

// Sum reports the sum of all observed samples.
func (h *Hist) Sum() int64 { return h.sum }

// Max reports the largest observed sample (zero with no samples).
func (h *Hist) Max() int64 { return h.max }

// Bucket reports the sample count of bucket i.
func (h *Hist) Bucket(i int) int64 { return h.buckets[i] }

// Mean reports the sample mean, or zero with no samples.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile reports the q-quantile (0 < q ≤ 1), locating the q·count-th
// sample's bucket and interpolating its position inside it under the
// assumption of uniformly spread samples (midpoint convention), clamped to
// the exact maximum. Interpolated positions increase with the rank, bucket
// bounds increase with the index, and the clamp is monotone, so Quantile
// is non-decreasing in q; the top rank short-circuits to the recorded
// maximum, so Quantile(1) == Max exactly. In the exact sub-bucket range
// the interpolation collapses to the precise sample value.
func (h *Hist) Quantile(q float64) int64 {
	return quantile(h.count, h.max, h.buckets[:], q)
}

// Reset clears the histogram in place.
func (h *Hist) Reset() { *h = Hist{} }

// quantile is the shared walk for Hist and HistSnapshot. buckets may be
// trailing-zero-trimmed.
func quantile(count, max int64, buckets []int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank >= count {
		// The top-ranked sample is the maximum itself — no estimate needed.
		return max
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			// The rank-th sample is the j-th (1-based) of c samples in
			// bucket [lo, hi). Place it at the midpoint of its 1/c slice;
			// for the exact sub-32 buckets (width 1) this floors back to
			// the precise value.
			lo := BucketLo(i)
			width := BucketUpper(i) - lo
			j := rank - (cum - c)
			v := lo + int64(float64(width)*(float64(j)-0.5)/float64(c))
			if v > max {
				return max
			}
			return v
		}
	}
	return max
}

// HistSnapshot is the serializable view of a Hist: the same data with the
// trailing zero buckets trimmed, as it rides inside stats.Snapshot (and
// therefore the scenario result cache).
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Hist) Snapshot() HistSnapshot {
	n := NumBuckets
	for n > 0 && h.buckets[n-1] == 0 {
		n--
	}
	s := HistSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	if n > 0 {
		s.Buckets = append([]int64(nil), h.buckets[:n]...)
	}
	return s
}

// Mean reports the sample mean, or zero with no samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile mirrors Hist.Quantile on the serialized form.
func (s HistSnapshot) Quantile(q float64) int64 {
	return quantile(s.Count, s.Max, s.Buckets, q)
}

// histCodecVersion tags the binary encoding.
const histCodecVersion = 1

// AppendBinary appends the canonical binary encoding of h to b: a version
// byte, then count/sum/max as uvarints, then the trailing-zero-trimmed
// bucket prefix (length plus one uvarint per bucket). The encoding is
// canonical — Decode of a valid stream re-encodes byte-identically.
func (h *Hist) AppendBinary(b []byte) []byte {
	b = append(b, histCodecVersion)
	b = binary.AppendUvarint(b, uint64(h.count))
	b = binary.AppendUvarint(b, uint64(h.sum))
	b = binary.AppendUvarint(b, uint64(h.max))
	n := NumBuckets
	for n > 0 && h.buckets[n-1] == 0 {
		n--
	}
	b = binary.AppendUvarint(b, uint64(n))
	for _, c := range h.buckets[:n] {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// DecodeHist parses a binary-encoded histogram, validating every internal
// invariant: well-formed varints with no trailing garbage, bucket counts
// that sum to the sample count, a maximum that is consistent with the
// populated buckets, and canonical trimming.
func DecodeHist(b []byte) (*Hist, error) {
	if len(b) == 0 || b[0] != histCodecVersion {
		return nil, fmt.Errorf("metrics: bad histogram version")
	}
	b = b[1:]
	next := func() (int64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > math.MaxInt64 {
			return 0, fmt.Errorf("metrics: truncated or oversized varint")
		}
		b = b[n:]
		return int64(v), nil
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	sum, err := next()
	if err != nil {
		return nil, err
	}
	max, err := next()
	if err != nil {
		return nil, err
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	if n > NumBuckets {
		return nil, fmt.Errorf("metrics: %d buckets exceeds geometry (%d)", n, NumBuckets)
	}
	h := &Hist{count: count, sum: sum, max: max}
	var bucketSum int64
	for i := int64(0); i < n; i++ {
		c, err := next()
		if err != nil {
			return nil, err
		}
		h.buckets[i] = c
		bucketSum += c
		if bucketSum < 0 {
			return nil, fmt.Errorf("metrics: bucket counts overflow")
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("metrics: %d trailing bytes", len(b))
	}
	if n > 0 && h.buckets[n-1] == 0 {
		return nil, fmt.Errorf("metrics: non-canonical trailing zero bucket")
	}
	if bucketSum != count {
		return nil, fmt.Errorf("metrics: bucket counts sum to %d, count says %d", bucketSum, count)
	}
	if count == 0 {
		if sum != 0 || max != 0 {
			return nil, fmt.Errorf("metrics: empty histogram with sum=%d max=%d", sum, max)
		}
		return h, nil
	}
	if h.buckets[BucketIndex(max)] == 0 {
		return nil, fmt.Errorf("metrics: max %d falls in an empty bucket", max)
	}
	top := int(n) - 1
	if max < BucketLo(top) {
		return nil, fmt.Errorf("metrics: max %d below populated bucket %d", max, top)
	}
	if sum < max {
		return nil, fmt.Errorf("metrics: sum %d below max %d", sum, max)
	}
	if max > 0 && count <= math.MaxInt64/max && sum > count*max {
		return nil, fmt.Errorf("metrics: sum %d exceeds count×max", sum)
	}
	return h, nil
}
