package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minOps is the fewest ops a timed phase may hold, so that at least ten
// samples lie beyond p99. A phase runs for its duration and then, if
// needed, until it has minOps ops.
const minOps = 1000

// maxPhase caps a phase that cannot reach minOps (unless it is asked to
// run longer).
const maxPhase = 60 * time.Second

// failedLatency is recorded for a failed op: a failure misses every
// latency limit, so it lands in the histogram's top bucket.
const failedLatency = time.Duration(1 << 62)

// A phase is cut into windows of winLen by the time each op starts.
// Throughput is the median over the windows, so a burst of contention from
// outside the process moves a few windows, not the result.
const (
	winLen     = time.Second
	maxWindows = int(maxPhase/winLen) + 2
)

type window struct {
	ops   int64
	flops float64
	busy  time.Duration // summed op latency
	first time.Duration // start of the window's first op, from the phase start
}

// phase is the outcome of one timed phase of one caller (or, after add,
// of all callers).
type phase struct {
	start    time.Time
	win      []window
	lat      hist
	ops      int64
	failed   int64
	wall     time.Duration
	heapPeak uint64 // bytes
	// busyTime selects the library definition of throughput: work over the
	// time spent inside library calls, per caller. Otherwise (fftd) it is
	// work over wall time.
	busyTime bool
	callers  int
}

func newPhase(start time.Time, busyTime bool, callers int) *phase {
	return &phase{start: start, win: make([]window, maxWindows), busyTime: busyTime, callers: callers}
}

// record adds one op that started at t0 and took d.
func (p *phase) record(t0 time.Time, d time.Duration, flops float64, failed bool) {
	at := t0.Sub(p.start)
	w := &p.win[min(int(at/winLen), maxWindows-1)]
	if w.ops == 0 || at < w.first {
		w.first = at
	}
	p.ops++
	w.ops++
	w.flops += flops
	w.busy += d
	if failed {
		p.failed++
		d = failedLatency
	}
	p.lat.record(d)
}

func (p *phase) add(o *phase) {
	p.lat.merge(&o.lat)
	for i := range p.win {
		w, ow := &p.win[i], &o.win[i]
		if ow.ops > 0 && (w.ops == 0 || ow.first < w.first) {
			w.first = ow.first
		}
		w.ops += ow.ops
		w.flops += ow.flops
		w.busy += ow.busy
	}
	p.ops += o.ops
	p.failed += o.failed
	p.heapPeak = max(p.heapPeak, o.heapPeak)
}

// endToEnd returns the phase's end-to-end metrics; setup is the median
// set-up time in seconds.
func (p *phase) endToEnd(setup float64) map[string]float64 {
	// A window's span runs from its first op to the next window's first op
	// (wall time) or is the time its ops spent in the library (busyTime).
	var mflops, opsPerS []float64
	for i := 0; i+1 < len(p.win) && p.win[i+1].ops > 0; i++ {
		w := &p.win[i]
		t := (p.win[i+1].first - w.first).Seconds()
		if p.busyTime {
			t = w.busy.Seconds() / float64(p.callers)
		}
		if w.ops == 0 || t <= 0 { // no op started in this window
			continue
		}
		mflops = append(mflops, w.flops/t/1e6)
		opsPerS = append(opsPerS, float64(w.ops)/t)
	}
	if len(mflops) == 0 { // a phase shorter than two windows
		var flops float64
		for _, w := range p.win {
			flops += w.flops
		}
		mflops = []float64{flops / p.wall.Seconds() / 1e6}
		opsPerS = []float64{float64(p.ops) / p.wall.Seconds()}
	}
	return map[string]float64{
		"mflops":         median(mflops),
		"ops_per_s":      median(opsPerS),
		"latency_p50_us": p.lat.quantile(0.50) / 1e3,
		"latency_p99_us": p.lat.quantile(0.99) / 1e3,
		"setup_s":        setup,
		"heap_peak_mib":  float64(p.heapPeak) / (1 << 20),
		"ok_frac":        1 - float64(p.failed)/float64(p.ops),
	}
}

// loop is one caller's closed loop body: it does op number i, records it
// in ph and any failure in fail (by kind), and returns the time it ended.
type loop func(i int64, ph *phase, fail []int64) time.Time

// runLoops is one timed phase: it runs the loops concurrently until d has
// passed and each has done its share of minOps ops, and merges what they
// recorded. The first loop also samples the heap.
func runLoops(loops []loop, kinds int, d time.Duration, busyTime bool) (*phase, []int64) {
	start := time.Now()
	deadline, stop := start.Add(d), start.Add(max(d, maxPhase))
	share := int64((minOps + len(loops) - 1) / len(loops))
	phases := make([]*phase, len(loops))
	fails := make([][]int64, len(loops))
	var wg sync.WaitGroup
	for c, next := range loops {
		ph, fail := newPhase(start, busyTime, len(loops)), make([]int64, kinds)
		phases[c], fails[c] = ph, fail
		wg.Add(1)
		go func(c int, next loop) {
			defer wg.Done()
			var h *heapSampler
			if c == 0 {
				h = newHeapSampler()
			}
			for i, now := int64(0), time.Now(); (now.Before(deadline) || ph.ops < share) && now.Before(stop); i++ {
				if h != nil {
					h.maybe(now)
				}
				now = next(i, ph, fail)
			}
			if h != nil {
				h.sample()
				ph.heapPeak = h.peak
			}
		}(c, next)
	}
	wg.Wait()
	out := newPhase(start, busyTime, len(loops))
	out.wall = time.Since(start)
	fail := make([]int64, kinds)
	for c := range phases {
		out.add(phases[c])
		for k, n := range fails[c] {
			fail[k] += n
		}
	}
	return out, fail
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapSampler tracks peak HeapInuse (heap object bytes plus the unused
// remainder of in-use spans) through runtime/metrics, which neither stops
// the world nor allocates.
type heapSampler struct {
	samples [2]metrics.Sample
	peak    uint64
	last    time.Time
}

// heapEvery is the sampling period of heapSampler.maybe.
const heapEvery = 20 * time.Millisecond

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.samples[0].Name = "/memory/classes/heap/objects:bytes"
	h.samples[1].Name = "/memory/classes/heap/unused:bytes"
	h.sample()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples[:])
	if v := h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapSampler) maybe(now time.Time) {
	if now.Sub(h.last) >= heapEvery {
		h.last = now
		h.sample()
	}
}
