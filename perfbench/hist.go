package main

import (
	"math"
	"math/bits"
	"time"
)

// The latency histogram is log-linear: values below 2^subBits ns get one
// bucket each, and every octave above is split into 2^subBits equal
// sub-buckets. With subBits = 6 that is 64 sub-buckets per octave, so a
// bucket spans at most 1/64 (1.6%) of the values it holds.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	maxOctave  = 36 // 2^37 ns ≈ 2.3 minutes; longer values clamp
	numBuckets = subBuckets + (maxOctave-subBits+1)*subBuckets
)

// hist is a fixed-size latency histogram. Recording never allocates, so the
// generator adds nothing to the heap it is measuring.
type hist struct {
	counts [numBuckets]uint64
	total  uint64
}

func bucketOf(ns uint64) int {
	if ns < subBuckets {
		return int(ns)
	}
	e := bits.Len64(ns) - 1
	if e > maxOctave {
		return numBuckets - 1
	}
	sub := int(ns>>(uint(e)-subBits)) & (subBuckets - 1)
	return subBuckets + (e-subBits)*subBuckets + sub
}

// bucketRange returns the lower bound and width of bucket i in ns.
func bucketRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	e := (i-subBuckets)/subBuckets + subBits
	sub := (i - subBuckets) % subBuckets
	width = float64(uint64(1) << uint(e-subBits))
	return float64(uint64(1)<<uint(e)) + float64(sub)*width, width
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// quantile returns the q-quantile in ns, or 0 for an empty histogram. The
// rank is the nearest rank (ceil); within its bucket the value is
// interpolated linearly, as if the bucket's samples were evenly spread.
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	rank = min(max(rank, 1), h.total)
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := bucketRange(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	panic("unreachable: rank exceeds the histogram total")
}
