package main

import (
	"math"
	"testing"
	"time"
)

// TestHistResolution checks the log-linear layout: buckets are contiguous,
// and none is wider than 2% of the values it holds.
func TestHistResolution(t *testing.T) {
	next := 0.0
	for i := 0; i < numBuckets; i++ {
		lo, width := bucketRange(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %g, want %g", i, lo, next)
		}
		if lo >= subBuckets && width/lo > 1.0/subBuckets {
			t.Fatalf("bucket %d [%g, %g) is %.2f%% wide", i, lo, lo+width, 100*width/lo)
		}
		next = lo + width
	}
	for _, ns := range []uint64{0, 1, 63, 64, 65, 1000, 123456, 1 << 36, 1<<37 - 1} {
		lo, width := bucketRange(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= lo+width {
			t.Errorf("%d ns recorded in bucket [%g, %g)", ns, lo, lo+width)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := 1; v <= 100000; v++ {
		h.record(time.Duration(v) * time.Nanosecond)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100000
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("p%g = %g ns, want %g within 2%%", 100*q, got, want)
		}
	}
	var two hist
	two.record(10 * time.Microsecond)
	two.merge(&h)
	if two.total != h.total+1 {
		t.Errorf("merged total %d, want %d", two.total, h.total+1)
	}
	if got := h.quantile(1); got < 99000 {
		t.Errorf("p100 = %g ns, want the largest value", got)
	}
}
