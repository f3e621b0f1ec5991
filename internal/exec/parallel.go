package exec

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
	"spiralfft/internal/twiddle"
)

// Schedule selects how loop iterations are assigned to processors.
type Schedule int

const (
	// ScheduleBlock assigns each processor a contiguous block of
	// iterations — the schedule the rewriting system derives (formula (14)),
	// which aligns per-processor working sets to cache-line boundaries.
	ScheduleBlock Schedule = iota
	// ScheduleCyclic deals iterations round-robin, the way a naive
	// parallelization of the Cooley-Tukey loops distributes them. With
	// blocks smaller than a cache line, processors interleave within lines
	// and false sharing appears. Provided for the ablation experiments.
	ScheduleCyclic
)

// String names the schedule.
func (s Schedule) String() string {
	if s == ScheduleCyclic {
		return "cyclic"
	}
	return "block"
}

// Parallel executes the multicore Cooley-Tukey FFT (formula (14) of the
// paper): DFT_n with top-level split n = m·k on p processors,
//
//	stage 1: m sub-DFTs of size k (contiguous output blocks per processor),
//	barrier,
//	stage 2: k twiddled strided sub-DFTs of size m (contiguous column
//	         blocks per processor).
//
// The three stride permutations of formula (14) are folded into the gather/
// scatter strides of the two stages (Spiral's loop merging); the twiddle
// direct sum ⊕∥ D_i becomes per-column tables consumed by stage 2. With
// pµ | m and pµ | k every per-processor chunk starts and ends on a cache
// line boundary, so the plan is load-balanced and free of false sharing —
// exec proves this dynamically in the cachesim tests.
//
// A Parallel plan is safe for concurrent use: all per-call state (stage
// buffer, per-worker scratch, barrier, region body) lives in execution
// contexts checked out of a pool, and a pooled backend serializes the
// regions of concurrent calls itself.
type Parallel struct {
	n, m, k int
	p       int
	mu      int
	left    *Seq // DFT_m plan (stage 2)
	right   *Seq // DFT_k plan (stage 1)
	tw      []complex128
	backend smp.Backend
	sched   Schedule
	itersM  [][]int // per-worker stage-1 iterations
	itersK  [][]int // per-worker stage-2 iterations
	// ctxs pools per-call execution contexts so concurrent Transforms never
	// share buffers (and the steady state allocates nothing).
	ctxs sync.Pool
	// barrierNs accumulates worker time spent in the inter-stage barrier
	// (recorded only while metrics are enabled).
	barrierNs metrics.Counter
}

// parCtx is the per-call mutable state of one Parallel transform. Each
// context owns its barrier so two concurrent regions on a concurrent-safe
// backend cannot corrupt each other's barrier protocol.
type parCtx struct {
	t        []complex128   // stage-1 output buffer
	scratch  [][]complex128 // per-worker scratch
	barrier  *smp.SpinBarrier
	dst, src []complex128 // per-call arguments
	// body is the region closure bound to this context, built once so a
	// dispatch allocates nothing.
	body func(w int)
}

// ParallelConfig configures NewParallel.
type ParallelConfig struct {
	// P is the number of processors (≥ 1).
	P int
	// Mu is the cache-line length in complex elements (µ). Default 4.
	Mu int
	// Backend runs the parallel regions; required for P > 1. The plan does
	// not own the backend: Close leaves it running.
	Backend smp.Backend
	// Schedule selects iteration assignment; default ScheduleBlock.
	Schedule Schedule
	// LeftTree and RightTree override the sub-plan factorizations
	// (default RadixTree).
	LeftTree, RightTree *Tree
	// TraceOnly builds a plan for access-pattern analysis only: no twiddle
	// tables, buffers, scratch, or backend are set up, and Transform panics.
	// Used by the cache simulator and the platform performance model.
	TraceOnly bool
}

// NewParallel builds the multicore plan for DFT_n with the given top-level
// split m (n = m·k). It requires pµ | m and pµ | k under ScheduleBlock — the
// paper's applicability condition. ScheduleCyclic (ablation) only requires
// p ≤ m, k.
func NewParallel(n, m int, cfg ParallelConfig) (*Parallel, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("exec: NewParallel with P=%d", cfg.P)
	}
	if cfg.Mu == 0 {
		cfg.Mu = 4
	}
	if m < 2 || n%m != 0 || n/m < 2 {
		return nil, fmt.Errorf("exec: invalid split %d = %d · %d", n, m, n/m)
	}
	k := n / m
	q := cfg.P * cfg.Mu
	if cfg.Schedule == ScheduleBlock && (m%q != 0 || k%q != 0) {
		return nil, fmt.Errorf("exec: split %d·%d violates pµ-divisibility (pµ=%d): formula (14) not applicable", m, k, q)
	}
	if cfg.Schedule == ScheduleCyclic && (m < cfg.P || k < cfg.P) {
		return nil, fmt.Errorf("exec: split %d·%d too small for p=%d", m, k, cfg.P)
	}
	if cfg.TraceOnly {
		pl := &Parallel{n: n, m: m, k: k, p: cfg.P, mu: cfg.Mu, sched: cfg.Schedule}
		pl.itersM = make([][]int, cfg.P)
		pl.itersK = make([][]int, cfg.P)
		for w := 0; w < cfg.P; w++ {
			pl.itersM[w] = scheduleIters(m, cfg.P, w, cfg.Schedule)
			pl.itersK[w] = scheduleIters(k, cfg.P, w, cfg.Schedule)
		}
		return pl, nil
	}
	if cfg.Backend == nil {
		if cfg.P != 1 {
			return nil, fmt.Errorf("exec: NewParallel needs a backend for P=%d", cfg.P)
		}
		cfg.Backend = smp.Sequential{}
	}
	if cfg.Backend.Workers() != cfg.P {
		return nil, fmt.Errorf("exec: backend has %d workers, plan wants %d", cfg.Backend.Workers(), cfg.P)
	}
	lt := cfg.LeftTree
	if lt == nil {
		lt = RadixTree(m)
	}
	rt := cfg.RightTree
	if rt == nil {
		rt = RadixTree(k)
	}
	left, err := NewSeq(lt)
	if err != nil {
		return nil, err
	}
	right, err := NewSeq(rt)
	if err != nil {
		return nil, err
	}
	if left.N() != m || right.N() != k {
		return nil, fmt.Errorf("exec: sub-tree sizes %d/%d do not match split %d·%d", left.N(), right.N(), m, k)
	}
	pl := &Parallel{
		n: n, m: m, k: k,
		p:       cfg.P,
		mu:      cfg.Mu,
		left:    left,
		right:   right,
		tw:      twiddle.GlobalCache().Columns(m, k),
		backend: cfg.Backend,
		sched:   cfg.Schedule,
	}
	// Per-worker scratch: stage 1 and stage 2 both run sub-plans, plus an
	// m-element pre-scale buffer when the stage-2 root is composite and its
	// stage-1 spine cannot fuse the twiddle column itself.
	need := right.ScratchLen()
	l2 := left.ScratchLen()
	if !left.FusesTwiddles() {
		l2 += m
	}
	if l2 > need {
		need = l2
	}
	if need == 0 {
		need = 1
	}
	p := cfg.P
	pl.ctxs.New = func() any {
		c := &parCtx{
			t:       make([]complex128, n),
			scratch: make([][]complex128, p),
			barrier: smp.NewSpinBarrier(p),
		}
		c.body = func(w int) { pl.runWorker(w, c) }
		for w := range c.scratch {
			c.scratch[w] = make([]complex128, need)
		}
		return c
	}
	pl.itersM = make([][]int, cfg.P)
	pl.itersK = make([][]int, cfg.P)
	for w := 0; w < cfg.P; w++ {
		pl.itersM[w] = scheduleIters(m, cfg.P, w, cfg.Schedule)
		pl.itersK[w] = scheduleIters(k, cfg.P, w, cfg.Schedule)
	}
	return pl, nil
}

func scheduleIters(total, p, w int, sched Schedule) []int {
	if sched == ScheduleCyclic {
		return smp.CyclicIndices(total, p, w, 1)
	}
	lo, hi := smp.BlockRange(total, p, w)
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// N returns the transform size.
func (pl *Parallel) N() int { return pl.n }

// Split returns the top-level factors (m, k).
func (pl *Parallel) Split() (m, k int) { return pl.m, pl.k }

// Workers returns p.
func (pl *Parallel) Workers() int { return pl.p }

// Schedule returns the iteration schedule in use.
func (pl *Parallel) Schedule() Schedule { return pl.sched }

// Trees returns the two sub-plan factorization trees.
func (pl *Parallel) Trees() (left, right *Tree) { return pl.left.Tree(), pl.right.Tree() }

// Transform computes dst = DFT_n(src). dst == src is allowed. Transform is
// safe for concurrent use from multiple goroutines; on the pooled backend
// concurrent calls take turns on the pool, on the spawn backend they
// proceed independently.
func (pl *Parallel) Transform(dst, src []complex128) {
	if pl.backend == nil {
		panic("exec: Transform called on a trace-only plan")
	}
	if len(dst) != pl.n || len(src) != pl.n {
		panic(fmt.Sprintf("exec: Parallel.Transform length mismatch: plan %d, dst %d, src %d", pl.n, len(dst), len(src)))
	}
	ctx := pl.ctxs.Get().(*parCtx)
	ctx.dst, ctx.src = dst, src
	if metrics.Enabled() {
		// Label the region for CPU profiles. Labels cover worker 0 (inline)
		// and, on the spawn backend, the per-region goroutines it creates;
		// pre-created pool workers keep their own label set.
		pprof.Do(context.Background(),
			pprof.Labels("spiralfft.region", "multicore-ct", "spiralfft.n", strconv.Itoa(pl.n)),
			func(context.Context) { pl.backend.Run(ctx.body) })
	} else {
		pl.backend.Run(ctx.body)
	}
	ctx.dst, ctx.src = nil, nil
	pl.ctxs.Put(ctx)
}

// BarrierWait returns the total time workers have spent in the inter-stage
// barrier. Accumulated only while metrics are enabled.
func (pl *Parallel) BarrierWait() time.Duration {
	return time.Duration(pl.barrierNs.Load())
}

// Backend returns the plan's threading backend (nil for trace-only plans).
func (pl *Parallel) Backend() smp.Backend { return pl.backend }

// runWorker is the parallel-region body: worker w executes its contiguous
// share of both stages with one barrier in between, on the buffers of the
// call's execution context.
func (pl *Parallel) runWorker(w int, ctx *parCtx) {
	m, k := pl.m, pl.k
	t := ctx.t
	dst, src := ctx.dst, ctx.src
	scratch := ctx.scratch[w]
	// Stage 1: I_p ⊗∥ (I_{m/p} ⊗ DFT_k) after the folded right-side
	// permutations of (14): iteration i gathers src[i::m] and writes the
	// contiguous block t[i·k:(i+1)·k). Worker w owns iterations
	// [w·m/p, (w+1)·m/p): its output chunk is contiguous and µ-aligned.
	for _, i := range pl.itersM[w] {
		pl.right.TransformStrided(t, i*k, 1, src, i, m, nil, scratch)
	}
	bs := metrics.Now()
	ctx.barrier.Wait()
	if !bs.IsZero() {
		pl.barrierNs.Add(int64(time.Since(bs)))
	}
	// Stage 2: (⊕∥ D_i) then I_p ⊗∥ (DFT_m ⊗ I_{k/p}) with the left-side
	// permutations folded: iteration j reads column t[j::k], scales by
	// twiddle column j, writes dst[j::k]. Worker w owns columns
	// [w·k/p, (w+1)·k/p): within every row its writes form a contiguous
	// µ-aligned span.
	if pl.left.FusesTwiddles() {
		for _, j := range pl.itersK[w] {
			pl.left.TransformStrided(dst, j, k, t, j, k, pl.tw[j*m:(j+1)*m], scratch)
		}
	} else {
		pre := scratch[:m]
		childScratch := scratch[m:]
		for _, j := range pl.itersK[w] {
			col := pl.tw[j*m : (j+1)*m]
			for i := 0; i < m; i++ {
				pre[i] = t[j+i*k] * col[i]
			}
			pl.left.TransformStrided(dst, j, k, pre, 0, 1, nil, childScratch)
		}
	}
}
