package spiralfft

import (
	"expvar"
	"sync"
	"time"

	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
)

// This file is the public observability surface. The paper's methodology is
// runtime-feedback-driven — every claim in Figure 3 is a timed measurement
// reported as pseudo Mflop/s 5·N·log2(N)/t[µs] — and the library exposes
// the same signal about itself at runtime:
//
//   - every plan type has a Snapshot method reporting transform counts,
//     latency, and pseudo-Mflop/s, plus worker-pool dispatch statistics and
//     barrier wait time for parallel plans;
//   - Cache.Stats reports hit/miss/single-flight/eviction counters;
//   - ExposeExpvar publishes process-wide aggregates under expvar names
//     "spiralfft.cache", "spiralfft.pools", and "spiralfft.transforms";
//   - with metrics enabled, parallel regions run under runtime/pprof labels
//     ("spiralfft.region", "spiralfft.n") so CPU profiles attribute samples
//     to transform regions.
//
// Timed instrumentation is off by default: EnableMetrics turns it on.
// While disabled, the per-transform cost is one atomic load, one branch and
// two atomic adds — and zero allocations (asserted by TestMetricsDisabledZeroAlloc).

// EnableMetrics turns on timed instrumentation process-wide: latency
// histograms and pseudo-Mflop/s on every plan, pool join/barrier wait
// times, and pprof labels around parallel regions. Event counters
// (transform counts, cache hit/miss, pool wakeup classification) are always
// maintained.
func EnableMetrics() { metrics.Enable() }

// DisableMetrics turns timed instrumentation back off (the default state).
func DisableMetrics() { metrics.Disable() }

// MetricsEnabled reports whether timed instrumentation is on.
func MetricsEnabled() bool { return metrics.Enabled() }

// TransformStats is the per-plan (or per-kind aggregate) transform record.
type TransformStats struct {
	// Transforms counts every transform executed (maintained even with
	// metrics disabled).
	Transforms int64
	// Timed counts transforms that ran with metrics enabled; the fields
	// below cover only those.
	Timed int64
	// TotalTime and AvgTime are wall-clock totals over the timed transforms.
	TotalTime time.Duration
	AvgTime   time.Duration
	// P99 is an upper bound on the 99th-percentile transform latency (from
	// the power-of-two histogram buckets).
	P99 time.Duration
	// PseudoMflops is the paper's Figure-3 metric computed over the timed
	// transforms: nominal flops / total time in µs. For DFT plans the
	// nominal flop count is 5·N·log2(N); see DESIGN.md for the per-family
	// conventions.
	PseudoMflops float64
}

func transformStatsOf(r *metrics.TransformRecorder) TransformStats {
	s := r.Snapshot()
	return TransformStats{
		Transforms:   s.Transforms,
		Timed:        s.Timed,
		TotalTime:    s.TotalTime,
		AvgTime:      s.AvgTime,
		P99:          s.Latency.Quantile(0.99),
		PseudoMflops: s.PseudoMflops,
	}
}

// PoolStats reports a worker pool's dispatch statistics: how regions were
// dispatched and how the workers received them. The spin/yield/park wakeup
// split is the direct signal for diagnosing dispatch latency — a busy pool
// takes almost all dispatches in the pure-spin phase, while an
// oversubscribed pool (more workers than GOMAXPROCS) skips spinning
// entirely and shows yield/park wakeups instead.
//
// Pooled plans share one process-wide team per worker count, so a plan's
// PoolStats are that team's totals over every plan that dispatches onto
// it, not the plan's own share.
type PoolStats struct {
	// Workers is the pool size p.
	Workers int
	// Oversubscribed reports p > GOMAXPROCS against the live GOMAXPROCS at
	// the time of the snapshot; such pools never busy-spin.
	Oversubscribed bool
	// Regions counts parallel regions dispatched through the pool.
	Regions int64
	// SpinWakeups, YieldWakeups and ParkWakeups classify how workers
	// received dispatches: in the pure-spin fast path, during yielded
	// spinning, or woken from the parked (blocked) state.
	SpinWakeups, YieldWakeups, ParkWakeups int64
	// JoinYields counts scheduler yields in the dispatcher's join loop.
	JoinYields int64
	// JoinWait is the dispatcher's total join wait (metrics enabled only).
	JoinWait time.Duration
	// RecoveredPanics counts region-body panics the pool's workers
	// recovered (each re-thrown to the caller as a *smp.WorkerPanic).
	RecoveredPanics int64
	// LatePickups counts regions a yielding or parked worker picked up
	// more than 1 ms late: its thread had been descheduled. Each one makes
	// the plans of up to 2^20 flops on the team run their sequential
	// program for the next 100 ms.
	LatePickups int64
}

// PlanStats is the Snapshot result of a plan: its transform record plus,
// for parallel plans, synchronization and pool dispatch statistics.
type PlanStats struct {
	TransformStats
	// BarrierWait is the total worker time spent in inter-stage barriers
	// (parallel DFT plans, metrics enabled only).
	BarrierWait time.Duration
	// Pool holds the dispatch statistics of the shared worker team behind a
	// parallel plan on the pooled backend (nil for sequential or
	// spawn-backed plans). It remains available after Close, frozen at the
	// values the team had then.
	Pool *PoolStats
}

// poolStatsOf extracts pool statistics from a backend, if it is a pool.
func poolStatsOf(b smp.Backend) *PoolStats {
	p, ok := b.(interface{ Stats() smp.PoolStats })
	if !ok {
		return nil
	}
	st := p.Stats()
	return &PoolStats{
		Workers:         st.Workers,
		Oversubscribed:  st.Oversubscribed,
		Regions:         st.Regions,
		SpinWakeups:     st.SpinWakeups,
		YieldWakeups:    st.YieldWakeups,
		ParkWakeups:     st.ParkWakeups,
		JoinYields:      st.JoinYields,
		JoinWait:        st.JoinWait,
		RecoveredPanics: st.RecoveredPanics,
		LatePickups:     st.LatePickups,
	}
}

// AggregatePoolStats sums dispatch statistics over every pool the process
// has created (live and closed), for the expvar export.
type AggregatePoolStats struct {
	// Pools counts pools ever created; Live counts pools not yet closed.
	Pools, Live int64
	// Regions and the wakeup counters are summed over all pools.
	Regions                                int64
	SpinWakeups, YieldWakeups, ParkWakeups int64
	JoinYields                             int64
	JoinWait                               time.Duration
	// RecoveredPanics sums the region-body panics recovered in pools.
	RecoveredPanics int64
	// LatePickups sums the pools' late region pickups.
	LatePickups int64
}

// PoolTotals returns process-wide worker-pool statistics.
func PoolTotals() AggregatePoolStats {
	a := smp.AggregateStats()
	return AggregatePoolStats{
		Pools:           a.Pools,
		Live:            a.Live,
		Regions:         a.Regions,
		SpinWakeups:     a.SpinWakeups,
		YieldWakeups:    a.YieldWakeups,
		ParkWakeups:     a.ParkWakeups,
		JoinYields:      a.JoinYields,
		JoinWait:        a.JoinWait,
		RecoveredPanics: a.RecoveredPanics,
		LatePickups:     a.LatePickups,
	}
}

// ---------------------------------------------------------------------------
// Per-kind process-wide aggregates

// transformKind indexes the per-family aggregate recorders.
type transformKind int

const (
	tkDFT transformKind = iota
	tkReal
	tkBatch
	tk2D
	tkWHT
	tkDCT
	tkSTFT
	numKinds
)

var kindNames = [numKinds]string{"dft", "real", "batch", "dft2d", "wht", "dct", "stft"}

// aggRec accumulates transforms per family across all plans in the process.
var aggRec [numKinds]metrics.TransformRecorder

// recordTransform logs one completed transform on the plan's own recorder
// and the process-wide per-kind aggregate. start comes from metrics.Now():
// zero (metrics disabled) records counts only, no timing.
func recordTransform(rec *metrics.TransformRecorder, kind transformKind, start time.Time, flops int64) {
	rec.Record(start, flops)
	aggRec[kind].Record(start, flops)
}

// TransformTotals returns the process-wide transform aggregates by family:
// "dft", "real", "batch", "dft2d", "wht", "dct", "stft". Families with no
// transforms yet are omitted.
func TransformTotals() map[string]TransformStats {
	out := make(map[string]TransformStats, numKinds)
	for k := range aggRec {
		st := transformStatsOf(&aggRec[k])
		if st.Transforms > 0 {
			out[kindNames[k]] = st
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// expvar export

var exposeOnce sync.Once

// ExposeExpvar publishes the library's process-wide metrics through the
// standard expvar mechanism (GET /debug/vars on the default mux):
//
//	spiralfft.cache       — DefaultCache().Stats()
//	spiralfft.pools       — PoolTotals()
//	spiralfft.transforms  — TransformTotals()
//
// Idempotent; safe to call from multiple goroutines.
func ExposeExpvar() {
	exposeOnce.Do(func() {
		expvar.Publish("spiralfft.cache", expvar.Func(func() any { return DefaultCache().Stats() }))
		expvar.Publish("spiralfft.pools", expvar.Func(func() any { return PoolTotals() }))
		expvar.Publish("spiralfft.transforms", expvar.Func(func() any { return TransformTotals() }))
	})
}
