package spiralfft

import (
	"context"
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/metrics"
)

// BatchPlan transforms many independent equal-length signals in one call.
// In SPL terms a batch is I_b ⊗ DFT_n, which rule (9) of the paper
// parallelizes directly: each processor executes a contiguous block of
// whole transforms — embarrassingly parallel, load balanced, and (for
// n a multiple of µ) free of false sharing without any further rewriting.
// The schedule is lowered to a one-region IR program and runs through the
// shared executor.
//
// Signals are stored back to back in one flat slice of length Count()·N().
//
// A BatchPlan is safe for concurrent use: per-call workspace is pooled, and
// parallel regions on the pooled backend run on the process-wide shared
// team of that worker count, serialized with the regions of every other
// plan using it.
type BatchPlan struct {
	n, count int
	workers  int
	planCore
	// tree is the per-signal factorization.
	tree *exec.Tree
}

// NewBatchPlan prepares a plan for count signals of length n each.
// Workers > count is reduced to count (no idle processors).
func NewBatchPlan(n, count int, o *Options) (*BatchPlan, error) {
	if n < 1 || count < 1 {
		return nil, fmt.Errorf("%w: batch %d×%d", ErrInvalidSize, count, n)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	opt := o.withDefaults()
	workers := opt.Workers
	if workers > count {
		workers = count
	}
	tree := exec.RadixTree(n)
	if opt.Planner != PlannerFixed {
		// Reuse the single-plan machinery for tree choice.
		single, err := NewPlan(n, &Options{Planner: opt.Planner, Wisdom: opt.Wisdom})
		if err != nil {
			return nil, err
		}
		tree = single.tree
		single.Close()
	}
	b := &BatchPlan{n: n, count: count, workers: workers, tree: tree}
	b.init(tkBatch, int64(float64(count)*exec.FlopCount(n)), n*count)
	b.initComplexLeases(n*count, n*count)
	seqProg, err := ir.LowerBatch(tree, count, 1)
	if err != nil {
		return nil, err
	}
	if b.seqExe, err = ir.NewExecutor(seqProg, nil); err != nil {
		return nil, err
	}
	if workers > 1 {
		prog, err := ir.LowerBatch(tree, count, workers)
		if err != nil {
			return nil, err
		}
		backend := newBackendFor(opt, workers)
		exe, err := ir.NewExecutor(prog, backend)
		if err != nil {
			return nil, err
		}
		b.exe, b.backend = exe, backend
	}
	return b, nil
}

// N returns the per-signal transform size.
func (b *BatchPlan) N() int { return b.n }

// Len returns the required slice length for Forward/Inverse: n·count,
// the whole batch (see Sized for the generic contract).
func (b *BatchPlan) Len() int { return b.n * b.count }

// Count returns the number of signals per batch.
func (b *BatchPlan) Count() int { return b.count }

// Workers returns the number of workers the batch uses.
func (b *BatchPlan) Workers() int { return b.workers }

// Program returns the lowered IR program the plan executes. The program is
// shared — callers must not mutate it.
func (b *BatchPlan) Program() *ir.Program {
	if e := b.exe; e != nil {
		return e.Program()
	}
	return b.seqExe.Program()
}

// Forward transforms all signals: for each s < Count(),
// dst[s·n : (s+1)·n] = DFT_n(src[s·n : (s+1)·n]). dst == src is allowed.
// Forward is safe for concurrent use.
func (b *BatchPlan) Forward(dst, src []complex128) error {
	if err := b.check(dst, src); err != nil {
		return err
	}
	defer rethrowAsRegionPanic()
	start := metrics.Now()
	b.run(dst, src)
	b.record(start)
	return nil
}

// ForwardCtx is Forward under a context: cancellation is observed before
// the batch starts and at region boundaries; on cancellation the error is
// ctx.Err() and dst is unspecified. A nil ctx behaves like Forward.
func (b *BatchPlan) ForwardCtx(ctx context.Context, dst, src []complex128) error {
	if err := b.check(dst, src); err != nil {
		return err
	}
	defer rethrowAsRegionPanic()
	start := metrics.Now()
	if err := b.runCtx(ctx, dst, src); err != nil {
		return err
	}
	b.record(start)
	return nil
}

// Inverse applies the unitary inverse to all signals. dst == src is allowed.
// Inverse is safe for concurrent use.
func (b *BatchPlan) Inverse(dst, src []complex128) error {
	if err := b.check(dst, src); err != nil {
		return err
	}
	defer rethrowAsRegionPanic()
	start := metrics.Now()
	// conj → forward → conj/scale, batched.
	buf := b.getInv()
	defer b.putInv(buf)
	for i, v := range src {
		buf.v[i] = complex(real(v), -imag(v))
	}
	b.run(dst, buf.v)
	scale := 1 / float64(b.n)
	for i, v := range dst {
		dst[i] = complex(real(v)*scale, -imag(v)*scale)
	}
	b.record(start)
	return nil
}

// InverseCtx is Inverse under a context, with the same cancellation
// contract as ForwardCtx.
func (b *BatchPlan) InverseCtx(ctx context.Context, dst, src []complex128) error {
	if err := b.check(dst, src); err != nil {
		return err
	}
	defer rethrowAsRegionPanic()
	start := metrics.Now()
	buf := b.getInv()
	defer b.putInv(buf)
	for i, v := range src {
		buf.v[i] = complex(real(v), -imag(v))
	}
	if err := b.runCtx(ctx, dst, buf.v); err != nil {
		return err
	}
	scale := 1 / float64(b.n)
	for i, v := range dst {
		dst[i] = complex(real(v)*scale, -imag(v)*scale)
	}
	b.record(start)
	return nil
}

func (b *BatchPlan) check(dst, src []complex128) error {
	want := b.n * b.count
	if len(dst) != want || len(src) != want {
		return fmt.Errorf("%w: batch wants %d (= %d signals × %d), dst %d, src %d",
			ErrLengthMismatch, want, b.count, b.n, len(dst), len(src))
	}
	return nil
}

func (b *BatchPlan) run(dst, src []complex128) { b.executor().Transform(dst, src) }

func (b *BatchPlan) runCtx(ctx context.Context, dst, src []complex128) error {
	return b.executor().TransformCtx(ctx, dst, src)
}

// Close detaches the plan from its worker team (if any). Idempotent; the
// plan's statistics remain readable via Snapshot, and subsequent transforms
// fall back to the sequential program.
func (b *BatchPlan) Close() { b.release() }
