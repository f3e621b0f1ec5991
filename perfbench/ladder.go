package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"spiralfft"
	"spiralfft/internal/bench"
	"spiralfft/internal/codelet"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/search"
	"spiralfft/internal/server"
	"spiralfft/internal/smp"
	"spiralfft/internal/wire"
)

// The ladder times each layer from outside, through its public functions:
// a call is repeated in batches of about ladderBatch, and the median per-call
// time over ladderBatches batches is reported.
const (
	ladderBatches = 11
	ladderBatch   = 2 * time.Millisecond
)

// perCall returns the median time of one fn call in ns, or the first error
// fn returns.
func perCall(fn func() error) (float64, error) {
	batch := func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	n := 1
	for {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		if d >= ladderBatch/4 || n >= 1<<20 {
			break
		}
		n *= 2
	}
	n *= 4
	var s [ladderBatches]float64
	for b := range s {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		s[b] = float64(d.Nanoseconds()) / float64(n)
	}
	sort.Float64s(s[:])
	return s[ladderBatches/2], nil
}

// timings collects ladder results into out, keeping the first error.
type timings struct {
	out map[string]float64
	err error
}

// time stores fn's per-call time in ns under name.
func (t *timings) time(name string, fn func() error) {
	if t.err != nil {
		return
	}
	ns, err := perCall(fn)
	if err != nil {
		t.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	t.out[name] = ns
}

// commonLadder times the layers every workload measures: codelets, the
// wire codec and pool dispatch.
func commonLadder(out map[string]float64) error {
	t := timings{out: out}
	src := signal(1, 4096, 0)
	dst := make([]complex128, 4096)
	for _, n := range codeletSizes {
		k := codelet.Best(n)
		t.time(fmt.Sprintf("codelet.apply_ns.n%d", n), func() error { k.Apply(dst, 0, 1, src, 0, 1, nil); return nil })
	}
	for _, p := range wirePayloads {
		n, err := strconv.Atoi(p[1:])
		if err != nil {
			return err
		}
		var read, write func() error
		var r bytes.Reader
		var payload []byte
		if p[0] == 'c' {
			payload = append(payload, wire.ComplexBytes(src[:n])...)
			read = func() error { r.Reset(payload); return wire.ReadComplexLE(&r, dst[:n]) }
			write = func() error { return wire.WriteComplexLE(io.Discard, src[:n]) }
		} else {
			f := make([]float64, n)
			payload = append(payload, wire.FloatBytes(f)...)
			read = func() error { r.Reset(payload); return wire.ReadFloatLE(&r, f) }
			write = func() error { return wire.WriteFloatLE(io.Discard, f) }
		}
		for name, fn := range map[string]func() error{"wire.read_mib_s." + p: read, "wire.write_mib_s." + p: write} {
			t.time(name, fn)
			out[name] = float64(len(payload)) / (1 << 20) / (out[name] / 1e9)
		}
	}
	pool := smp.NewPool(2)
	out["smp.dispatch_ns"] = float64(bench.DispatchCost(pool, 1000, 5).Nanoseconds())
	pool.Close()
	return t.err
}

// ladder times the library layers under each size's plan: exec.Seq on its
// factorization tree (the left and right sub-trees of a parallel plan),
// ir.Executor on its program, Plan.Forward and Plan.Inverse, and then a
// cold NewPlan and a fresh Tuner.BestTree under the workload's planner.
func (b *libBench) ladder(out map[string]float64) error {
	t := timings{out: out}
	done := map[int]bool{}
	for k := range b.m {
		n := b.m[k].n
		if done[n] {
			continue
		}
		done[n] = true
		p := b.plans[k]
		src := b.in[k][0]
		dst := make([]complex128, n)
		if err := ladderExec(&t, p, src, dst); err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		t.time(fmt.Sprintf("plan.forward_ns.n%d", n), func() error { return p.Forward(dst, src) })
		t.time(fmt.Sprintf("plan.inverse_ns.n%d", n), func() error { return p.Inverse(dst, src) })

		t0 := time.Now()
		cold, err := spiralfft.NewPlan(n, &b.opts)
		if err != nil {
			return err
		}
		out[fmt.Sprintf("plan.build_ms.n%d", n)] = ms(time.Since(t0))
		cold.Close()

		tuner := search.NewTuner(search.StrategyDP)
		t0 = time.Now()
		tuner.BestTree(n)
		out[fmt.Sprintf("search.tune_ms.n%d", n)] = ms(time.Since(t0))
		out[fmt.Sprintf("search.measured.n%d", n)] = float64(tuner.Stats().Measured)
	}
	return t.err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ladderExec times the exec and ir layers under plan p.
func ladderExec(tm *timings, p *spiralfft.Plan, src, dst []complex128) error {
	n := p.N()
	if !p.IsParallel() {
		t, err := exec.ParseTree(p.Tree())
		if err != nil {
			return err
		}
		seq, err := exec.NewSeq(t)
		if err != nil {
			return err
		}
		scratch := seq.NewScratch()
		name := fmt.Sprintf("exec.seq_ns.n%d", n)
		if n >= parSizes[0] {
			// A parallel-size plan that measured faster sequentially.
			name += ".left"
		}
		tm.time(name, func() error { seq.Transform(dst, src, scratch); return nil })
		prog, err := ir.LowerTree(t)
		if err != nil {
			return err
		}
		e, err := ir.NewExecutor(prog, nil)
		if err != nil {
			return err
		}
		tm.time(fmt.Sprintf("ir.exec_ns.n%d", n), func() error { e.Transform(dst, src); return nil })
		return nil
	}
	// "parallel p=2: left=<tree>, right=<tree>"
	_, rest, _ := strings.Cut(p.Tree(), "left=")
	left, right, ok := strings.Cut(rest, ", right=")
	if !ok {
		return fmt.Errorf("unrecognised parallel tree %q", p.Tree())
	}
	for _, side := range []struct{ name, tree string }{{"left", left}, {"right", right}} {
		t, err := exec.ParseTree(side.tree)
		if err != nil {
			return err
		}
		seq, err := exec.NewSeq(t)
		if err != nil {
			return err
		}
		scratch := seq.NewScratch()
		m := t.N
		tm.time(fmt.Sprintf("exec.seq_ns.n%d.%s", n, side.name), func() error { seq.Transform(dst[:m], src[:m], scratch); return nil })
	}
	pool := smp.NewPool(p.Workers())
	defer pool.Close()
	e, err := ir.NewExecutor(p.Program(), pool)
	if err != nil {
		return err
	}
	tm.time(fmt.Sprintf("ir.exec_ns.n%d", n), func() error { e.Transform(dst, src); return nil })
	return nil
}

// barrierWait sums the barrier wait of the workload's plans.
func (b *libBench) barrierWait() (time.Duration, error) {
	var w time.Duration
	for k := range b.m {
		if !b.m[k].inv {
			w += b.plans[k].Snapshot().BarrierWait
		}
	}
	return w, nil
}

// ladder times each request kind in the server core (Server.Transform from
// a byte reader to io.Discard, no HTTP) and through loopback HTTP; the
// difference is the HTTP overhead. It also reads the server's sheds since
// it started and its live plan handles.
func (b *fftdBench) ladder(out map[string]float64) error {
	buf := b.newBuffers()
	for k := range b.m {
		kd := &b.m[k]
		req := server.Request{Family: server.Family(kd.family), N: kd.n, Count: kd.count, Inverse: kd.inv}
		var payload []byte
		if kd.family == "real" {
			payload = wire.FloatBytes(b.inF[k][0])
		} else {
			payload = wire.ComplexBytes(b.inC[k][0])
		}
		var r bytes.Reader
		core, err := perCall(func() error {
			r.Reset(payload)
			return b.srv.Transform(nil, &req, &r, io.Discard)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", kd.name, err)
		}
		o := op{kind: k}
		req2, err := perCall(func() error { return b.call(context.Background(), b.cl, o, buf) })
		if err != nil {
			return fmt.Errorf("%s: %w", kd.name, err)
		}
		out["server.transform_us."+kd.name] = core / 1e3
		out["http.request_us."+kd.name] = req2 / 1e3
		out["http.overhead_us."+kd.name] = (req2 - core) / 1e3
	}
	out["server.shed"] = float64(b.srv.Metrics().Shed)
	out["server.plan_count"] = float64(b.srv.PlanCount())
	return nil
}

// barrierWait sums the barrier wait of the server's dft and real plans,
// which it holds in b.cache under its own options.
func (b *fftdBench) barrierWait() (time.Duration, error) {
	cfg := b.srv.Config()
	o := &spiralfft.Options{
		Workers: cfg.Workers, CacheLineComplex: cfg.Mu, Planner: cfg.Planner,
		PlanBudget: cfg.PlanBudget, Wisdom: b.srv.Wisdom(""),
	}
	misses := b.cache.Stats().Misses
	var w time.Duration
	for k := range b.m {
		kd := &b.m[k]
		switch {
		case kd.family == "dft" && !kd.inv:
			if p, err := b.cache.Plan(kd.n, o); err == nil {
				w += p.Snapshot().BarrierWait
				p.Close()
			}
		case kd.family == "real":
			if p, err := b.cache.RealPlan(kd.n, o); err == nil {
				w += p.Snapshot().BarrierWait
				p.Close()
			}
		}
	}
	if b.cache.Stats().Misses != misses {
		return 0, errors.New("barrier wait: the server's plans were not found under its options")
	}
	return w, nil
}
