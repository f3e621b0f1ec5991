package spiralfft

import (
	"sync"
	"time"

	"spiralfft/internal/ir"
	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
)

// planCore is the shared execution core embedded by every root plan family.
// It owns the pieces the seven plan types used to copy independently: the
// transform recorder feeding Snapshot, the nominal flop count, the threading
// backend and the compiled IR executor bound to it, the pooled per-call
// conjugation buffers used by the Inverse entry points, and the final
// statistics preserved across Close. Families that carry their own
// parallelism set exe/backend; wrapper families (RealPlan, DCTPlan,
// STFTPlan) set inner to the plan that does.
type planCore struct {
	kind  transformKind
	flops int64
	rec   metrics.TransformRecorder
	// exe is the family's backend-bound executor (the lowered parallel
	// program); nil for plans running their sequential fallback program.
	exe *ir.Executor
	// seqExe is the family's single-worker program: the execution path of
	// sequential plans, and of parallel ones after Close or, for small
	// plans, while their team is stalled (see executor).
	seqExe *ir.Executor
	// backend is the threading substrate behind exe (the process-wide
	// shared team for pooled plans); nil for sequential plans. Set and
	// cleared together with exe.
	backend smp.Backend
	// inner, when set, is the wrapped plan that carries the parallelism;
	// Snapshot delegates pool and barrier statistics to it.
	inner interface{ Snapshot() PlanStats }
	// invs pools per-call workspace buffers (conjugation input for Inverse,
	// reordering workspace for the DCT).
	invs sync.Pool
	// leases is the plan's buffer-lease arena (see lease.go); each family's
	// constructor arms New with its own lease shape via initComplexLeases /
	// initRealLeases / initFloatLeases.
	leases sync.Pool
	// finalPool/finalBarrier preserve the parallel statistics across
	// release, so Snapshot stays consistent after Close.
	finalPool    *PoolStats
	finalBarrier time.Duration
}

// init sets the recorder identity and, for invLen > 0, the pooled
// per-call buffer size.
func (c *planCore) init(kind transformKind, flops int64, invLen int) {
	c.kind = kind
	c.flops = flops
	if invLen > 0 {
		c.invs.New = func() any { return &invBuf{v: make([]complex128, invLen)} }
	}
}

// invBuf wraps the pooled workspace slice (pooling the pointer keeps the
// steady state allocation-free).
type invBuf struct{ v []complex128 }

func (c *planCore) getInv() *invBuf  { return c.invs.Get().(*invBuf) }
func (c *planCore) putInv(b *invBuf) { c.invs.Put(b) }

// record logs one completed transform of the plan's nominal flop count.
func (c *planCore) record(start time.Time) { recordTransform(&c.rec, c.kind, start, c.flops) }

// recordN logs one completed transform of an explicit flop count (entry
// points whose work scales with the call, e.g. STFT whole-signal passes).
func (c *planCore) recordN(start time.Time, flops int64) {
	recordTransform(&c.rec, c.kind, start, flops)
}

// release drops the backend and the executor bound to it, preserving their
// final statistics for Snapshot (families with a sequential fallback
// program keep serving transforms through it). The backend itself is not
// closed: pooled plans dispatch onto the process-wide shared team, and
// spawn backends hold nothing. Idempotent.
func (c *planCore) release() {
	if c.backend != nil {
		c.finalPool = poolStatsOf(c.backend)
		if c.exe != nil {
			c.finalBarrier = c.exe.BarrierWait()
		}
		c.backend = nil
	}
	c.exe = nil
}

// Snapshot returns the plan's observability record: transform counts and,
// with metrics enabled (EnableMetrics), latency and pseudo-Mflop/s in the
// paper's unit, plus pool dispatch and barrier statistics for parallel
// plans. Wrapper families (RealPlan, DCTPlan, STFTPlan) report their own
// transform counts with the pool and barrier statistics of the inner plan
// that carries the parallelism. Safe to call concurrently with transforms
// and after Close.
func (c *planCore) Snapshot() PlanStats {
	st := PlanStats{TransformStats: transformStatsOf(&c.rec)}
	switch {
	case c.inner != nil:
		in := c.inner.Snapshot()
		st.BarrierWait = in.BarrierWait
		st.Pool = in.Pool
	case c.backend != nil:
		if c.exe != nil {
			st.BarrierWait = c.exe.BarrierWait()
		}
		st.Pool = poolStatsOf(c.backend)
	default:
		st.BarrierWait = c.finalBarrier
		st.Pool = c.finalPool
	}
	return st
}

// stallFallbackFlops bounds the plans that leave a stalled team alone: at
// most 2^20 flops, about a millisecond of sequential work at 1 Gflop/s, so
// their sequential program costs no more than the stall it avoids (a late
// pickup is over a millisecond). Larger plans keep their parallel speedup
// and absorb the occasional stall.
const stallFallbackFlops = 1 << 20

// executor returns the executor a transform runs on: the parallel program,
// unless the plan has none, or it is small (stallFallbackFlops) and its
// team is stalled (smp.Stalled: a worker was recently descheduled, so a
// dispatch would wait for it); else the sequential program.
func (c *planCore) executor() *ir.Executor {
	if e := c.exe; e != nil && (c.flops > stallFallbackFlops || !smp.Stalled(c.backend)) {
		return e
	}
	return c.seqExe
}

// newBackendFor returns the threading substrate the options select: the
// process-wide shared team of that many workers for BackendPool, a spawn
// backend for BackendSpawn. Neither needs closing.
func newBackendFor(opt Options, workers int) smp.Backend {
	if opt.Backend == BackendSpawn {
		return smp.NewSpawn(workers)
	}
	return smp.Shared(workers)
}
