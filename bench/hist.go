package main

import (
	"math/bits"
	"time"
)

// hist is a fixed-size log-bucketed latency histogram: 64 linear buckets
// per power of two, so a bucket is at most 1.6 % wide, and recording a
// sample touches one counter and allocates nothing. One client owns one
// hist; results are merged after the run.
type hist struct {
	n      uint64
	max    uint64
	counts [histBuckets]uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64-histSubBits)*histSub + histSub
)

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // >= histSubBits
	sub := (ns >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// histBounds returns the half-open [lo, hi) nanosecond range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := uint(i/histSub - 1 + histSubBits)
	sub := uint64(i % histSub)
	width := uint64(1) << (exp - histSubBits)
	l := uint64(1)<<exp + sub*width
	return float64(l), float64(l + width)
}

func (h *hist) record(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.counts[histIndex(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// supports reports whether quantile q has at least ten samples beyond it,
// the rule for which percentile a sample size can carry.
func (h *hist) supports(q float64) bool {
	return float64(h.n)*(1-q) >= 10
}

// quantileUs returns quantile q in microseconds, interpolating linearly
// inside the bucket that holds it so the value is not quantized to bucket
// edges. An empty histogram yields 0.
func (h *hist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return (lo + (hi-lo)*(rank-seen)/float64(c)) / 1e3
		}
		seen += float64(c)
	}
	return float64(h.max) / 1e3
}
