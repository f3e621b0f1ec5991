package main

import (
	"fmt"
	"time"

	"spiralfft"
)

// checkEvery is the stride of the in-loop output check on the library
// workloads: every checkEvery-th op's output is compared with the oracle's.
const checkEvery = 64

// libBench drives complex DFT plans in-process from closed-loop callers.
type libBench struct {
	m       mix
	opts    spiralfft.Options
	seed    int64
	callers int
	flops   []float64        // per kind
	in      [][][]complex128 // [kind][variant], shared by the two directions of a size
	want    [][][]complex128 // [kind][variant], oracle outputs
	dst     []complex128     // for set-up, verify and the ladder
	failed  []int64          // per kind

	cache *spiralfft.Cache
	plans []*spiralfft.Plan // per kind; both directions of a size share one plan
}

func newLibBench(m mix, opts spiralfft.Options, callers int, seed int64) *libBench {
	b := &libBench{m: m, opts: opts, seed: seed, callers: callers, failed: make([]int64, len(m))}
	inputs := map[int][][]complex128{}
	maxN := 0
	for k := range m {
		n := m[k].n
		if inputs[n] == nil {
			for v := 0; v < variants; v++ {
				inputs[n] = append(inputs[n], signal(seed, n, v))
			}
		}
		b.in = append(b.in, inputs[n])
		b.flops = append(b.flops, m[k].flops())
		maxN = max(maxN, n)
	}
	b.want = make([][][]complex128, len(m))
	b.dst = make([]complex128, maxN)
	return b
}

// setup builds every plan the mix uses from an empty Cache and empty wisdom,
// and warms each with one transform in each direction.
func (b *libBench) setup() (time.Duration, error) {
	start := time.Now()
	c := &spiralfft.Cache{}
	c.SetWisdom(spiralfft.NewWisdom())
	b.cache = c
	b.plans = make([]*spiralfft.Plan, len(b.m))
	for k := range b.m {
		p, err := c.Plan(b.m[k].n, &b.opts)
		if err != nil {
			b.teardown()
			return 0, fmt.Errorf("plan %s: %w", b.m[k].name, err)
		}
		b.plans[k] = p
	}
	for k := range b.m {
		if err := b.do(op{kind: k}, b.dst); err != nil {
			b.teardown()
			return 0, fmt.Errorf("warm %s: %w", b.m[k].name, err)
		}
	}
	return time.Since(start), nil
}

func (b *libBench) teardown() {
	for _, p := range b.plans {
		if p != nil {
			p.Close()
		}
	}
	b.plans = nil
	b.cache.Close()
}

// do runs one op into dst.
func (b *libBench) do(o op, dst []complex128) error {
	k := &b.m[o.kind]
	p := b.plans[o.kind]
	dst = dst[:k.n]
	if k.inv {
		return p.Inverse(dst, b.in[o.kind][o.variant])
	}
	return p.Forward(dst, b.in[o.kind][o.variant])
}

// step times op number i with output to dst, records it in ph and any
// failure in fail, and returns its end time. It never allocates.
func (b *libBench) step(o op, i int64, ph *phase, dst []complex128, fail []int64) time.Time {
	t0 := time.Now()
	err := b.do(o, dst)
	t1 := time.Now()
	failed := err != nil || (i%checkEvery == 0 && relErr(dst[:b.m[o.kind].n], b.want[o.kind][o.variant]) > tol)
	if failed {
		fail[o.kind]++
	}
	ph.record(t0, t1.Sub(t0), b.flops[o.kind], failed)
	return t1
}

// run is one timed phase: each caller runs ops in its own seeded order until
// d has passed and the callers together have done minOps ops.
func (b *libBench) run(d time.Duration) *phase {
	loops := make([]loop, b.callers)
	for c := range loops {
		g, dst := newGen(b.m, b.seed, c), make([]complex128, len(b.dst))
		loops[c] = func(i int64, ph *phase, fail []int64) time.Time {
			return b.step(g.next(), i, ph, dst, fail)
		}
	}
	ph, fail := runLoops(loops, len(b.m), d, true)
	for k, n := range fail {
		b.failed[k] += n
	}
	return ph
}

// verify checks every kind on every input variant. The first call
// (want == nil) checks against the oracle and records its outputs: the
// naive DFT up to oracleMax, round trip, Parseval and direct bins beyond.
// Later calls check that the plans still reproduce those outputs.
func (b *libBench) verify() (attempted int64, errs []string) {
	for k := range b.m {
		kd := &b.m[k]
		first := b.want[k] == nil
		for v := 0; v < variants; v++ {
			attempted++
			o := op{kind: k, variant: v}
			err := b.do(o, b.dst)
			got := append([]complex128(nil), b.dst[:kd.n]...)
			ref := got
			switch {
			case err != nil:
			case !first:
				if e := relErr(got, b.want[k][v]); e > tol {
					err = fmt.Errorf("output changed under load: error %.3g", e)
				}
			case kd.n <= oracleMax:
				ref = naive(b.in[k][v], kd.inv)
				if e := relErr(got, ref); e > tol {
					err = fmt.Errorf("naive-DFT oracle error %.3g", e)
				}
			default:
				back := make([]complex128, kd.n)
				p := b.plans[k]
				if kd.inv {
					err = p.Forward(back, got)
				} else {
					err = p.Inverse(back, got)
				}
				if err == nil {
					err = checkLarge(b.in[k][v], got, back, kd.inv)
				}
			}
			if first {
				b.want[k] = append(b.want[k], ref)
			}
			if err != nil {
				b.failed[k]++
				errs = append(errs, fmt.Sprintf("%s variant %d: %v", kd.name, v, err))
			}
		}
	}
	return attempted, errs
}

// describe lists the factorization of each size's plan, for the report.
func (b *libBench) describe() []string {
	var out []string
	for k := range b.m {
		if b.m[k].inv {
			continue
		}
		out = append(out, fmt.Sprintf("n=%d: %s", b.m[k].n, b.plans[k].Tree()))
	}
	return out
}

func (b *libBench) kinds() mix        { return b.m }
func (b *libBench) failures() []int64 { return b.failed }
