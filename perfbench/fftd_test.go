package main

import (
	"testing"
	"time"

	"spiralfft/internal/server"
)

// TestFFTDShortRun drives the fftd workload, and a Workers=1 server with two
// concurrent clients, through set-up, a short timed phase, the traced
// counters and the checks, and requires every op to succeed.
func TestFFTDShortRun(t *testing.T) {
	for name, b := range map[string]*fftdBench{
		"fftd-default":        findWorkload("fftd-default").make(3).(*fftdBench),
		"workers=1 clients=2": newFFTDBench(fftdMix, server.Config{Workers: 1}, 2, 3),
	} {
		if _, err := b.setup(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, errs := b.verify(); len(errs) > 0 {
			t.Errorf("%s: %v", name, errs)
		}
		ph := b.run(200 * time.Millisecond)
		if _, err := b.barrierWait(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, errs := b.verify(); len(errs) > 0 {
			t.Errorf("%s: %v", name, errs)
		}
		b.teardown()
		if ph.ops < minOps || ph.failed != 0 {
			t.Errorf("%s: %d ops, %d failed; want at least %d ops, none failed", name, ph.ops, ph.failed, minOps)
		}
		m := ph.endToEnd(0)
		for _, k := range []string{"mflops", "ops_per_s", "latency_p50_us", "latency_p99_us", "heap_peak_mib"} {
			if !(m[k] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, k, m[k])
			}
		}
	}
}
