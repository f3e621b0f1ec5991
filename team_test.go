package spiralfft

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"spiralfft/internal/complexvec"
)

// TestParallelPlansShareOneTeam: pooled plans with the same worker count
// dispatch onto one process-wide team instead of each starting a pool, so
// building and driving many of them adds at most one live pool and p-1
// worker goroutines, and the regions of different plans — interleaved on
// one goroutine or overlapping from two — still compute correct transforms.
func TestParallelPlansShareOneTeam(t *testing.T) {
	const p = 2
	sizes := []int{64, 128, 192, 256, 320, 384, 512, 1024}
	live0 := PoolTotals().Live
	g0 := runtime.NumGoroutine()

	plans := make([]*Plan, len(sizes))
	for i, n := range sizes {
		pl, err := NewPlan(n, &Options{Workers: p})
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close()
		if !pl.IsParallel() {
			t.Fatalf("n=%d: %d-worker plan is not parallel (tree %s)", n, p, pl.Tree())
		}
		plans[i] = pl
	}
	xs := make([][]complex128, len(sizes))
	wants := make([][]complex128, len(sizes))
	for i, n := range sizes {
		xs[i] = complexvec.Random(n, uint64(i+1))
		wants[i] = refDFT(xs[i])
	}

	t.Run("Interleaved", func(t *testing.T) {
		for round := 0; round < 3; round++ {
			for i, pl := range plans {
				dst := make([]complex128, sizes[i])
				if err := pl.Forward(dst, xs[i]); err != nil {
					t.Fatal(err)
				}
				if e := complexvec.RelError(dst, wants[i]); e > tol {
					t.Fatalf("round %d n=%d: error %g", round, sizes[i], e)
				}
			}
		}
	})

	t.Run("TwoGoroutines", func(t *testing.T) {
		iters := 200
		if testing.Short() {
			iters = 50
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, i := range []int{3, 7} { // n=256 and n=1024
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				dst := make([]complex128, sizes[i])
				<-start
				for it := 0; it < iters; it++ {
					if err := plans[i].Forward(dst, xs[i]); err != nil {
						t.Error(err)
						return
					}
					if e := complexvec.RelError(dst, wants[i]); e > tol {
						t.Errorf("iter %d n=%d: error %g", it, sizes[i], e)
						return
					}
				}
			}(i)
		}
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatal("two plans driven at once deadlocked on the shared team")
		}
	})

	if d := PoolTotals().Live - live0; d > 1 {
		t.Errorf("%d plans added %d live pools, want at most 1", len(plans), d)
	}
	if d := runtime.NumGoroutine() - g0; d > p-1 {
		t.Errorf("%d plans added %d goroutines, want at most %d", len(plans), d, p-1)
	}
}
