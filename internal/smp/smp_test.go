package smp

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"spiralfft/internal/metrics"
)

func backends(p int) map[string]Backend {
	return map[string]Backend{
		"pool":  NewPool(p),
		"spawn": NewSpawn(p),
	}
}

func TestBackendsRunAllWorkers(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for name, b := range backends(p) {
			if b.Workers() != p {
				t.Errorf("%s: Workers() = %d, want %d", name, b.Workers(), p)
			}
			seen := make([]atomic.Int32, p)
			b.Run(func(w int) { seen[w].Add(1) })
			for w := 0; w < p; w++ {
				if seen[w].Load() != 1 {
					t.Errorf("%s p=%d: worker %d ran %d times", name, p, w, seen[w].Load())
				}
			}
			b.Close()
		}
	}
}

func TestBackendsManyRounds(t *testing.T) {
	// Repeated regions must all see their own body and fully join: a counter
	// incremented by every worker in every round must be exact.
	const rounds = 300
	for _, p := range []int{1, 2, 4} {
		for name, b := range backends(p) {
			var total atomic.Int64
			for r := 0; r < rounds; r++ {
				r := r
				b.Run(func(w int) { total.Add(int64(r*0 + 1)) })
			}
			if got := total.Load(); got != int64(rounds*p) {
				t.Errorf("%s p=%d: total = %d, want %d", name, p, got, rounds*p)
			}
			b.Close()
		}
	}
}

func TestRunJoinsBeforeReturning(t *testing.T) {
	// After Run returns, all side effects of all workers must be visible.
	p := 4
	for name, b := range backends(p) {
		buf := make([]int, p)
		for r := 1; r <= 50; r++ {
			r := r
			b.Run(func(w int) { buf[w] = r })
			for w := 0; w < p; w++ {
				if buf[w] != r {
					t.Fatalf("%s: round %d worker %d effect not visible after Run", name, r, w)
				}
			}
		}
		b.Close()
	}
}

func TestPoolCloseIdempotentAndSequentialInline(t *testing.T) {
	pl := NewPool(3)
	pl.Run(func(int) {})
	pl.Close()
	pl.Close() // must not hang or panic

	var s Sequential
	ran := false
	s.Run(func(w int) {
		if w != 0 {
			t.Errorf("sequential worker id %d", w)
		}
		ran = true
	})
	if !ran || s.Workers() != 1 {
		t.Error("sequential backend broken")
	}
	s.Close()
}

func TestNewPoolPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(0)
}

func TestSpinBarrierPhases(t *testing.T) {
	const p = 4
	const phases = 200
	b := NewSpinBarrier(p)
	pool := NewPool(p)
	defer pool.Close()
	// Each worker appends its phase-stamped contribution; the barrier must
	// prevent any worker from racing ahead a phase.
	var counters [phases]atomic.Int32
	pool.Run(func(w int) {
		for ph := 0; ph < phases; ph++ {
			counters[ph].Add(1)
			b.Wait()
			// After the barrier, all p increments of this phase are visible.
			if got := counters[ph].Load(); got != p {
				t.Errorf("worker %d phase %d: count %d, want %d", w, ph, got, p)
			}
			b.Wait()
		}
	})
}

func TestSpinBarrierSingleParticipant(t *testing.T) {
	b := NewSpinBarrier(1)
	for i := 0; i < 10; i++ {
		b.Wait() // must never block
	}
}

func TestBlockRangePartitions(t *testing.T) {
	cases := []struct{ total, p int }{{16, 4}, {16, 3}, {7, 4}, {1, 2}, {0, 3}, {100, 7}}
	for _, c := range cases {
		covered := make([]bool, c.total)
		prevHi := 0
		for w := 0; w < c.p; w++ {
			lo, hi := BlockRange(c.total, c.p, w)
			if lo != prevHi {
				t.Errorf("BlockRange(%d,%d,%d): lo %d, want contiguous %d", c.total, c.p, w, lo, prevHi)
			}
			prevHi = hi
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("iteration %d covered twice", i)
				}
				covered[i] = true
			}
		}
		if prevHi != c.total {
			t.Errorf("BlockRange(%d,%d): covered %d", c.total, c.p, prevHi)
		}
	}
}

func TestBlockRangeBalance(t *testing.T) {
	// Worker loads differ by at most one iteration.
	for _, c := range []struct{ total, p int }{{17, 4}, {100, 7}, {8, 8}, {5, 8}} {
		minLoad, maxLoad := c.total, 0
		for w := 0; w < c.p; w++ {
			lo, hi := BlockRange(c.total, c.p, w)
			load := hi - lo
			if load < minLoad {
				minLoad = load
			}
			if load > maxLoad {
				maxLoad = load
			}
		}
		if maxLoad-minLoad > 1 {
			t.Errorf("BlockRange(%d,%d): imbalance %d", c.total, c.p, maxLoad-minLoad)
		}
	}
}

func TestCyclicIndicesPartition(t *testing.T) {
	total, p, block := 22, 3, 2
	var all []int
	for w := 0; w < p; w++ {
		idx := CyclicIndices(total, p, w, block)
		all = append(all, idx...)
	}
	sort.Ints(all)
	if len(all) != total {
		t.Fatalf("cyclic covered %d of %d", len(all), total)
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("cyclic missing/duplicating index %d", i)
		}
	}
	// Worker 0 with block 2 must start 0,1 then skip to 6,7.
	w0 := CyclicIndices(total, p, 0, block)
	if w0[0] != 0 || w0[1] != 1 || w0[2] != 6 || w0[3] != 7 {
		t.Errorf("cyclic schedule wrong: %v", w0[:4])
	}
}

// Property: BlockRange covers [0, total) exactly once for arbitrary inputs.
func TestQuickBlockRangeCovers(t *testing.T) {
	f := func(totalU, pU uint16) bool {
		total := int(totalU % 2048)
		p := int(pU%16) + 1
		sum := 0
		for w := 0; w < p; w++ {
			lo, hi := BlockRange(total, p, w)
			if lo > hi || lo < 0 || hi > total {
				return false
			}
			sum += hi - lo
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkRegionDispatch(b *testing.B) {
	// The pool-vs-spawn dispatch overhead is the mechanism behind the
	// paper's early parallelization crossover (ablation A1).
	for _, p := range []int{2, 4} {
		pool := NewPool(p)
		b.Run("pool/p="+itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.Run(func(int) {})
			}
		})
		pool.Close()
		spawn := NewSpawn(p)
		b.Run("spawn/p="+itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spawn.Run(func(int) {})
			}
		})
	}
}

func itoa(v int) string {
	if v == 2 {
		return "2"
	}
	return "4"
}

func TestSchedulingHelperPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"BlockRange bad p":    func() { BlockRange(8, 0, 0) },
		"BlockRange bad w":    func() { BlockRange(8, 2, 2) },
		"CyclicIndices block": func() { CyclicIndices(8, 2, 0, 0) },
		"NewSpawn":            func() { NewSpawn(0) },
		"NewSpinBarrier":      func() { NewSpinBarrier(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPoolOversubscriptionDetection(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	small := NewPool(1)
	defer small.Close()
	if small.Stats().Oversubscribed {
		t.Error("1-worker pool reported oversubscribed")
	}
	big := NewPool(procs + 1)
	defer big.Close()
	if !big.Stats().Oversubscribed {
		t.Errorf("pool with %d workers on %d procs not reported oversubscribed", procs+1, procs)
	}
	if oversubscribed(procs) {
		t.Error("barrier with GOMAXPROCS participants should spin")
	}
	if !oversubscribed(procs + 1) {
		t.Error("barrier with GOMAXPROCS+1 participants should not spin")
	}
}

func TestPoolStatsClassifyEveryWakeup(t *testing.T) {
	// Each worker takes exactly one wakeup path per region, so after Run
	// returns the three classes must sum to (p-1)·regions.
	const regions = 50
	for _, p := range []int{2, 4} {
		pool := NewPool(p)
		for i := 0; i < regions; i++ {
			pool.Run(func(int) {})
		}
		st := pool.Stats()
		pool.Close()
		if st.Regions != regions {
			t.Errorf("p=%d: Regions = %d, want %d", p, st.Regions, regions)
		}
		if got, want := st.SpinWakeups+st.YieldWakeups+st.ParkWakeups, int64((p-1)*regions); got != want {
			t.Errorf("p=%d: wakeups %d+%d+%d = %d, want %d",
				p, st.SpinWakeups, st.YieldWakeups, st.ParkWakeups, got, want)
		}
		if st.Workers != p {
			t.Errorf("p=%d: Workers = %d", p, st.Workers)
		}
	}
}

func TestOversubscribedPoolSkipsSpinPhase(t *testing.T) {
	// An oversubscribed pool's waiters must never report a pure-spin wakeup
	// beyond the free epoch-check (spinBudget 0 admits only spins == 0).
	procs := runtime.GOMAXPROCS(0)
	pool := NewPool(procs + 2)
	defer pool.Close()
	var ran atomic.Int32
	for i := 0; i < 20; i++ {
		pool.Run(func(int) { ran.Add(1) })
	}
	if got := ran.Load(); got != int32(20*(procs+2)) {
		t.Fatalf("ran %d bodies, want %d", got, 20*(procs+2))
	}
	st := pool.Stats()
	// With spinBudget = 0, a wakeup is classified "spin" only when the very
	// first epoch check already sees the new epoch — possible, but the yield
	// and park classes must carry the bulk of the traffic.
	if st.YieldWakeups+st.ParkWakeups == 0 {
		t.Errorf("oversubscribed pool recorded no yield/park wakeups: %+v", st)
	}
}

func TestAggregateStatsSurvivesClose(t *testing.T) {
	before := AggregateStats()
	pool := NewPool(2)
	const regions = 7
	for i := 0; i < regions; i++ {
		pool.Run(func(int) {})
	}
	mid := AggregateStats()
	if mid.Pools != before.Pools+1 || mid.Live != before.Live+1 {
		t.Errorf("after create: pools %d→%d live %d→%d", before.Pools, mid.Pools, before.Live, mid.Live)
	}
	pool.Close()
	after := AggregateStats()
	if after.Live != before.Live {
		t.Errorf("after close: live = %d, want %d", after.Live, before.Live)
	}
	if got := after.Regions - before.Regions; got != regions {
		t.Errorf("aggregate regions grew by %d, want %d (closed pool's stats must be retained)", got, regions)
	}
}

func TestPoolJoinWaitRecordedWhenMetricsEnabled(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	pool := NewPool(2)
	defer pool.Close()
	for i := 0; i < 4; i++ {
		pool.Run(func(w int) {
			if w != 0 {
				time.Sleep(2 * time.Millisecond) // worker 0 must wait in join
			}
		})
	}
	if st := pool.Stats(); st.JoinWait <= 0 {
		t.Errorf("JoinWait = %v, want > 0 with metrics enabled", st.JoinWait)
	}
}

func TestSpinBarrierWaitTime(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	b := NewSpinBarrier(2)
	done := make(chan struct{})
	go func() {
		b.Wait() // arrives first, waits for the sleeper
		close(done)
	}()
	time.Sleep(2 * time.Millisecond)
	b.Wait()
	<-done
	if wt := b.WaitTime(); wt <= 0 {
		t.Errorf("WaitTime = %v, want > 0", wt)
	}
}

// BenchmarkOversubscribedDispatch is the regression guard for the
// oversubscription fix: dispatch on a pool with more workers than
// processors must stay in the microsecond range instead of burning the
// spin budgets (which made each region cost milliseconds of stolen CPU).
func BenchmarkOversubscribedDispatch(b *testing.B) {
	pool := NewPool(runtime.GOMAXPROCS(0) + 2)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Run(func(int) {})
	}
}

func TestPoolParksWhenIdle(t *testing.T) {
	// After a quiet period the workers must park (no busy spin); a
	// subsequent Run must still work (wakeup path).
	p := NewPool(2)
	defer p.Close()
	p.Run(func(int) {})
	// Force the workers past the spin budget into the parked state.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if parked := func() int { p.mu.Lock(); defer p.mu.Unlock(); return p.parked }(); parked > 0 {
			break
		}
	}
	var ran atomic.Int32
	p.Run(func(int) { ran.Add(1) })
	if ran.Load() != 2 {
		t.Errorf("post-park Run executed %d workers", ran.Load())
	}
}

// TestActiveWorkersSignal: the process-wide saturation signal must rise by
// the backend's worker count for the duration of a region and fall back to
// its baseline afterwards (other tests may run in parallel, so the test
// measures deltas from inside the region body).
func TestActiveWorkersSignal(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()

	var during int64
	pool.Run(func(w int) {
		if w == 0 {
			during = ActiveWorkers()
		}
	})
	if during < 2 {
		t.Errorf("ActiveWorkers during 2-worker region = %d, want >= 2", during)
	}

	sp := NewSpawn(3)
	sp.Run(func(w int) {
		if w == 0 {
			during = ActiveWorkers()
		}
	})
	if during < 3 {
		t.Errorf("ActiveWorkers during 3-worker spawn region = %d, want >= 3", during)
	}
}

// TestActiveWorkersReleasedOnPanic: a contained region panic must not leak
// the saturation signal.
func TestActiveWorkersReleasedOnPanic(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	base := ActiveWorkers()
	func() {
		defer func() { recover() }()
		pool.Run(func(w int) {
			if w == 1 {
				panic("boom")
			}
		})
	}()
	if got := ActiveWorkers(); got != base {
		t.Errorf("ActiveWorkers after contained panic = %d, want %d", got, base)
	}
}

// withinMinute runs f on a fresh goroutine and fails the test if it has not
// returned after a minute (a wedged team would otherwise hang the suite).
func withinMinute(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("%s did not finish: shared team wedged", what)
	}
}

// TestSharedTeamIsOnePersistentPool: Shared hands every caller the same
// team, Close does not stop it, and concurrent Run calls from different
// goroutines never overlap — each region sees exactly its own p bodies.
func TestSharedTeamIsOnePersistentPool(t *testing.T) {
	const p = 2
	live0 := AggregateStats().Live
	a, b := Shared(p), Shared(p)
	if a != b {
		t.Fatal("Shared(2) returned two different teams")
	}
	if d := AggregateStats().Live - live0; d > 1 {
		t.Fatalf("two Shared(2) calls added %d live pools", d)
	}
	a.Close()
	seen := make([]atomic.Int32, p)
	b.Run(func(w int) { seen[w].Add(1) })
	for w := range seen {
		if seen[w].Load() != 1 {
			t.Fatalf("after Close: worker %d ran %d times", w, seen[w].Load())
		}
	}
	if AggregateStats().Live-live0 > 1 {
		t.Fatal("Close retired or duplicated the shared team")
	}

	const callers, rounds = 4, 200
	var active, maxActive atomic.Int32
	var wrong atomic.Int32
	withinMinute(t, "concurrent Run calls", func() {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				team := Shared(p)
				for r := 0; r < rounds; r++ {
					var mine atomic.Int32
					team.Run(func(int) {
						if v := active.Add(1); v > maxActive.Load() {
							maxActive.Store(v)
						}
						mine.Add(1)
						runtime.Gosched()
						active.Add(-1)
					})
					if mine.Load() != p {
						wrong.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	})
	if n := wrong.Load(); n > 0 {
		t.Errorf("%d regions ran a number of their own bodies other than %d", n, p)
	}
	if m := maxActive.Load(); m > p {
		t.Errorf("%d region bodies ran at once on a %d-worker team", m, p)
	}
}

// TestSharedTeamSurvivesPanic: a region panic re-thrown by Run releases the
// team mutex, so the next caller's region still runs.
func TestSharedTeamSurvivesPanic(t *testing.T) {
	team := Shared(2)
	func() {
		defer func() {
			if _, ok := recover().(*WorkerPanic); !ok {
				t.Fatal("region panic was not re-thrown as *WorkerPanic")
			}
		}()
		team.Run(func(w int) {
			if w == 1 {
				panic("boom")
			}
		})
	}()
	withinMinute(t, "Run after a contained panic", func() {
		var n atomic.Int32
		team.Run(func(int) { n.Add(1) })
		if n.Load() != 2 {
			t.Errorf("region after panic ran %d bodies, want 2", n.Load())
		}
	})
}

// forceLatePickup runs one region on b whose worker 1 cannot start before
// worker 0 has busy-run for 3 ms: with one processor, the caller keeps it
// through its own share.
func forceLatePickup(b Backend) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.Run(func(w int) {
		if w == 0 {
			for start := time.Now(); time.Since(start) < 3*time.Millisecond; {
			}
		}
	})
}

// TestLatePickupStallsPool: a worker that picks up a region more than
// stallPickup after its dispatch marks its pool stalled for stallCooldown.
// The mark shows in Stalled unless the guard is off, the pickup is counted
// either way, and the mark expires. Spawn and Sequential never stall.
func TestLatePickupStallsPool(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	if Stalled(pool) {
		t.Fatal("fresh pool is stalled")
	}
	var start time.Time
	for i := 0; i < 5 && pool.Stats().LatePickups == 0; i++ {
		start = time.Now()
		forceLatePickup(pool)
	}
	if got := pool.Stats().LatePickups; got != 1 {
		t.Fatalf("LatePickups = %d after a 3 ms late pickup, want 1", got)
	}
	// The mark was set after start, so it holds until start+stallCooldown
	// at the earliest.
	if !Stalled(pool) && time.Since(start) < stallCooldown {
		t.Fatal("late pickup did not mark the pool stalled")
	}
	was := SetStallGuard(false)
	if Stalled(pool) {
		t.Error("Stalled with the guard off")
	}
	SetStallGuard(was)
	deadline := time.Now().Add(5 * time.Second)
	for Stalled(pool) {
		if time.Now().After(deadline) {
			t.Fatal("stall mark did not expire")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if Stalled(NewSpawn(2)) || Stalled(Sequential{}) {
		t.Error("a backend without persistent workers reported a stall")
	}
}
