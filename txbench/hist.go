package main

import (
	"math"
	"math/bits"
	"slices"
)

// subBits sets the histogram's resolution: 128 linear sub-buckets per
// power of two, so a quantile read from it is within 1/256 of the
// exact order statistic. The repository's own metrics.Histogram has 8
// sub-buckets per octave; its 1/16 error would show up as a step of
// several percent in a median, too coarse to compare two runs with.
const subBits = 7

const numBuckets = (64 - subBits) << subBits

// hist is a fixed-size log-linear histogram of non-negative int64
// values (nanoseconds here). Its memory does not grow with the number
// of samples, so the benchmark's own footprint stays the same however
// fast the program under test runs.
type hist struct {
	n uint64
	c [numBuckets]uint32
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	e := bits.Len64(u) - 1 - subBits
	return (e+1)<<subBits + int(u>>e) - 1<<subBits
}

// bucketMid is the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < 1<<subBits {
		return float64(b)
	}
	e := b>>subBits - 1
	lo := uint64(b&(1<<subBits-1)+1<<subBits) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *hist) add(v int64) {
	h.c[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.c {
		h.c[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile of the samples plus extra samples
// that all read extraVal, larger than any sample (requests never
// answered); 0 when there are no samples at all.
func (h *hist) quantile(q float64, extra uint64, extraVal float64) float64 {
	total := h.n + extra
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.c {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return extraVal
}

// median of a sample list (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
