package exec

import (
	"fmt"
	"sync"

	"spiralfft/internal/smp"
)

// Fast Walsh-Hadamard transform executors. The WHT shares the FFT's tensor
// structure but has no twiddle factors, so its multicore form needs only
// rules (7), (9) and (10): two barrier-separated stages of independent
// sub-WHTs over contiguous per-processor blocks.

// WHTInPlace applies the 2^k-point WHT to buf (length a power of two) in
// place by radix-2 butterflies. Exported for the IR executor, which runs
// WHT stage ops through the same butterfly ordering so results stay
// bit-identical to this package's plans.
func WHTInPlace(buf []complex128) { whtInPlace(buf) }

// whtInPlace applies the 2^k-point WHT to buf[0:2^k] by radix-2 butterflies.
func whtInPlace(buf []complex128) {
	n := len(buf)
	for step := 1; step < n; step *= 2 {
		for i := 0; i < n; i += 2 * step {
			for j := i; j < i+step; j++ {
				a, b := buf[j], buf[j+step]
				buf[j], buf[j+step] = a+b, a-b
			}
		}
	}
}

// WHTPlan executes the Walsh-Hadamard transform WHT_{2^k}, sequentially or
// with the multicore two-stage schedule (split 2^k = m·q, contiguous
// µ-aligned blocks per processor). WHT plans are safe for concurrent use:
// per-call buffers come from a context pool, and a pooled backend
// serializes the regions of concurrent calls itself.
type WHTPlan struct {
	k, n    int
	m, q    int // parallel split (0 when sequential)
	p       int
	backend smp.Backend
	ctxs    sync.Pool // *whtCtx (parallel plans only)
}

// whtCtx is the per-call mutable state of one parallel WHT transform.
type whtCtx struct {
	t        []complex128
	scratch  [][]complex128
	barrier  *smp.SpinBarrier
	dst, src []complex128
	// body is the region closure bound to this context, built once so a
	// dispatch allocates nothing.
	body func(w int)
}

// NewWHT builds a WHT plan of size 2^k. For p > 1 it picks the most
// balanced split m·q with pµ dividing both factors; if none exists the plan
// runs sequentially. backend is required for p > 1 and must have p workers.
func NewWHT(k, p, mu int, backend smp.Backend) (*WHTPlan, error) {
	if k < 1 {
		return nil, fmt.Errorf("exec: NewWHT exponent %d", k)
	}
	if mu < 1 {
		mu = 4
	}
	n := 1 << uint(k)
	pl := &WHTPlan{k: k, n: n, p: 1}
	if p <= 1 {
		return pl, nil
	}
	m, ok := SplitFor(n, p, mu)
	if !ok {
		return pl, nil // sequential fallback
	}
	if backend == nil || backend.Workers() != p {
		return nil, fmt.Errorf("exec: NewWHT needs a %d-worker backend", p)
	}
	pl.p = p
	pl.m = m
	pl.q = n / m
	pl.backend = backend
	pl.ctxs.New = func() any {
		c := &whtCtx{
			t:       make([]complex128, n),
			scratch: make([][]complex128, p),
			barrier: smp.NewSpinBarrier(p),
		}
		c.body = func(w int) { pl.runWorker(w, c) }
		for w := range c.scratch {
			c.scratch[w] = make([]complex128, m)
		}
		return c
	}
	return pl, nil
}

// N returns the transform size 2^k.
func (pl *WHTPlan) N() int { return pl.n }

// IsParallel reports whether the plan uses the two-stage parallel schedule.
func (pl *WHTPlan) IsParallel() bool { return pl.p > 1 }

// Transform computes dst = WHT_n(src); dst == src is allowed. The WHT is
// self-inverse up to 1/n: Transform(Transform(x)) == n·x.
func (pl *WHTPlan) Transform(dst, src []complex128) {
	if len(dst) != pl.n || len(src) != pl.n {
		panic(fmt.Sprintf("exec: WHT.Transform length mismatch: plan %d, dst %d, src %d", pl.n, len(dst), len(src)))
	}
	if pl.p == 1 {
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		whtInPlace(dst)
		return
	}
	ctx := pl.ctxs.Get().(*whtCtx)
	ctx.dst, ctx.src = dst, src
	pl.backend.Run(ctx.body)
	ctx.dst, ctx.src = nil, nil
	pl.ctxs.Put(ctx)
}

// runWorker executes worker w's share of the two-stage parallel schedule on
// the buffers of the call's execution context.
func (pl *WHTPlan) runWorker(w int, ctx *whtCtx) {
	m, q, p := pl.m, pl.q, pl.p
	t, dst, src := ctx.t, ctx.dst, ctx.src
	// Stage 1: I_p ⊗∥ (I_{m/p} ⊗ WHT_q). Unlike the Cooley-Tukey FFT
	// there is no stride permutation in the WHT breakdown: block i is
	// the contiguous src[i·q:(i+1)·q).
	lo, hi := smp.BlockRange(m, p, w)
	for i := lo; i < hi; i++ {
		block := t[i*q : (i+1)*q]
		copy(block, src[i*q:(i+1)*q])
		whtInPlace(block)
	}
	ctx.barrier.Wait()
	// Stage 2: I_p ⊗∥ (WHT_m ⊗ I_{q/p}) folded: iteration j collects
	// column t[j::q] into worker scratch, transforms, scatters to
	// dst[j::q]. Worker columns are contiguous and µ-aligned.
	col := ctx.scratch[w]
	lo, hi = smp.BlockRange(q, p, w)
	for j := lo; j < hi; j++ {
		for i := 0; i < m; i++ {
			col[i] = t[j+i*q]
		}
		whtInPlace(col)
		for i := 0; i < m; i++ {
			dst[j+i*q] = col[i]
		}
	}
}
