package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a high-dynamic-range recorder in the style of Gil
// Tene's HdrHistogram: values keep their top hdrSubBits significant
// bits, so every bucket's relative width is at most 1/2^hdrSubBits
// (~1.6%) across the full uint64 range, and quantiles (p50/p95/p99/
// p999) read back with that bounded error. Memory is a fixed ~30 KB of
// atomic counters; Observe is lock-free and allocation-free, so the
// recorder can sit on a load generator's per-request path. The zero
// value is ready to use, and all methods are nil-safe, matching the
// package's other instruments.
//
// Determinism: the bucket an observation lands in, and therefore every
// quantile, depends only on the observed values — two runs that
// observe the same multiset of values report identical percentiles.
type Histogram struct {
	counts [hdrBucketCount]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64 // stores ^value so zero means "unset"
	max    atomic.Uint64
}

const (
	// hdrSubBits is the precision: values are quantized to their top
	// 1+hdrSubBits significant bits.
	hdrSubBits = 6
	// hdrSubBuckets is the number of linear sub-buckets per power of two.
	hdrSubBuckets = 1 << hdrSubBits
	// hdrBucketCount covers values 0..2^64-1: an exact region for
	// v < hdrSubBuckets plus 64-hdrSubBits log2 ranges of hdrSubBuckets
	// linear sub-buckets each.
	hdrBucketCount = (65 - hdrSubBits) * hdrSubBuckets
)

// hdrIndex maps a value to its bucket.
func hdrIndex(v uint64) int {
	if v < hdrSubBuckets {
		return int(v) // exact region
	}
	top := bits.Len64(v) // >= hdrSubBits+1
	sub := (v >> (top - 1 - hdrSubBits)) & (hdrSubBuckets - 1)
	return (top-hdrSubBits)*hdrSubBuckets + int(sub)
}

// hdrHigh returns the largest value bucket i holds — the conservative
// (upper-bound) representative quantiles report.
func hdrHigh(i int) uint64 {
	if i < hdrSubBuckets {
		return uint64(i)
	}
	top := i/hdrSubBuckets + hdrSubBits
	sub := uint64(i % hdrSubBuckets)
	width := top - 1 - hdrSubBits
	low := uint64(1)<<(top-1) | sub<<width
	return low + (uint64(1)<<width - 1)
}

// Observe records one value. Lock-free; safe on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[hdrIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	// min stores ^value so the zero initial state reads as MaxUint64.
	for {
		cur := h.min.Load()
		if v >= ^cur {
			break
		}
		if h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return ^h.min.Load()
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound
// of the bucket where the cumulative count first reaches ceil(q*n),
// clamped to the observed max so p100 is exact. Empty histograms read
// zero.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	rank := uint64(q*float64(total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := hdrHigh(i)
			if m := h.Max(); v > m {
				v = m
			}
			return v
		}
	}
	return h.Max()
}
