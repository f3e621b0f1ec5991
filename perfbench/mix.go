package main

import (
	"fmt"
	"math/rand"

	"spiralfft/internal/exec"
)

// opKind is one class of operation in a workload's mix.
type opKind struct {
	name   string
	family string // "dft", "real" or "batch"
	n      int    // points per transform
	count  int    // transforms per op (batch); 1 otherwise
	inv    bool
	weight int // ops of this kind per round
	// tier orders kinds by expected latency. Kinds that share a tier are
	// close enough that their order may differ between hosts or commits.
	tier int
}

func (k *opKind) points() int { return k.n * k.count }

// flops follows each plan family's own recorder convention: 5·n·log2 n per
// complex DFT, half that for a real-input DFT, count times that for a batch.
func (k *opKind) flops() float64 {
	f := exec.FlopCount(k.n) * float64(k.count)
	if k.family == "real" {
		f /= 2
	}
	return f
}

// mix is a workload's op classes in expected-latency order.
type mix []opKind

func (m mix) roundLen() int {
	t := 0
	for i := range m {
		t += m[i].weight
	}
	return t
}

// libMix builds a complex-DFT mix over four sizes, half forward and half
// inverse. Smaller sizes get more ops per round, but the largest keeps 1/7
// of all ops so that p99 lies well inside its inverse class (see
// TestQuantilePlacement); it therefore dominates the time of a round.
func libMix(sizes [4]int) mix {
	per := [4]int{24, 8, 4, 6} // ops per direction per round
	var m mix
	for i, n := range sizes {
		for _, inv := range []bool{false, true} {
			dir := "fwd"
			if inv {
				dir = "inv"
			}
			m = append(m, opKind{
				name: fmt.Sprintf("n%d.%s", n, dir), family: "dft",
				n: n, count: 1, inv: inv, weight: per[i], tier: 2*i + btoi(inv),
			})
		}
	}
	return m
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fftdMix is the request mix of the fftd workload. Payload size sets the
// latency tier; within a tier the order is not predictable. dft 256 takes
// 80% of the requests: on fftd-default a request is fast only when the one
// before it used the same plan, whose pool is then still awake. With dft
// 256 at 56%, the fast share sat near one half and p50 fell between the
// fast and the slow cluster, moving by ±30% from run to run.
var fftdMix = mix{
	{name: "dft256.fwd", family: "dft", n: 256, count: 1, weight: 40, tier: 0},
	{name: "dft256.inv", family: "dft", n: 256, count: 1, inv: true, weight: 40, tier: 0},
	{name: "batch64x16.fwd", family: "batch", n: 64, count: 16, weight: 2, tier: 1},
	{name: "dft1024.fwd", family: "dft", n: 1024, count: 1, weight: 1, tier: 1},
	{name: "dft1024.inv", family: "dft", n: 1024, count: 1, inv: true, weight: 1, tier: 1},
	{name: "real4096.fwd", family: "real", n: 4096, count: 1, weight: 2, tier: 2},
	{name: "dft4096.fwd", family: "dft", n: 4096, count: 1, weight: 7, tier: 3},
	{name: "dft4096.inv", family: "dft", n: 4096, count: 1, inv: true, weight: 7, tier: 3},
}

var (
	seqSizes = [4]int{16, 64, 256, 1024}
	parSizes = [4]int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
)

// op is one generated operation: a kind and which of its seeded input
// vectors to transform.
type op struct {
	kind, variant int
}

// variants is the number of distinct seeded inputs per size.
const variants = 2

// gen yields a workload's op sequence. Each round holds every kind exactly
// weight times, in an order shuffled from the seed, so proportions are the
// same for every seed and only the order differs. next never allocates.
type gen struct {
	rng   *rand.Rand
	round []op
	pos   int
}

// newGen returns the op generator for one client (stream) of a run.
func newGen(m mix, seed int64, stream int) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed*7919 + int64(stream)))}
	for k := range m {
		for i := 0; i < m[k].weight; i++ {
			g.round = append(g.round, op{kind: k})
		}
	}
	g.pos = len(g.round)
	return g
}

func (g *gen) next() op {
	if g.pos == len(g.round) {
		g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
		for i := range g.round {
			g.round[i].variant = g.rng.Intn(variants)
		}
		g.pos = 0
	}
	o := g.round[g.pos]
	g.pos++
	return o
}

// signal returns the seeded input vector variant v of length n, with real
// and imaginary parts uniform in [-1, 1).
func signal(seed int64, n, v int) []complex128 {
	r := rand.New(rand.NewSource(seed*104729 + int64(n)*31 + int64(v)))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
	}
	return x
}
