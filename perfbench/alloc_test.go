package main

import (
	"testing"
	"time"
)

// TestTimedLoopAllocs checks that one op of a library workload's timed
// loop, generator and heap sampling included, allocates nothing, so that
// heap_peak_mib and the GC measure the library and not the generator.
func TestTimedLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so plans allocate")
	}
	for _, name := range []string{"lib-seq", "lib-par"} {
		w := findWorkload(name)
		b := w.make(1).(*libBench)
		if _, err := b.setup(); err != nil {
			t.Fatal(err)
		}
		if _, errs := b.verify(); len(errs) > 0 {
			t.Fatalf("%s: %v", name, errs)
		}
		g := newGen(b.m, 1, 0)
		ph := newPhase(time.Now(), true, 1)
		h := newHeapSampler()
		dst, fail := make([]complex128, len(b.dst)), make([]int64, len(b.m))
		var i int64
		allocs := testing.AllocsPerRun(500, func() {
			h.maybe(b.step(g.next(), i, ph, dst, fail))
			i++
		})
		b.teardown()
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per op, want 0", name, allocs)
		}
		if ph.failed != 0 {
			t.Errorf("%s: %d ops failed", name, ph.failed)
		}
	}
}
