package spiralfft

import (
	"context"
	"errors"
	"math"

	"spiralfft/internal/cost"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

// The enormous-FFT tier. Beyond Options.LargeNThreshold the tree planner's
// recursive schedule stops making sense: its stage-2 column walks stride
// across the whole N-element buffer (one memory line per element) and its
// root twiddle diagonal is an O(N) resident table. This tier lowers such
// sizes through the four-step decomposition instead (ir.LowerFourStep):
// contiguous column and row sub-FFTs around explicit cache-blocked
// transposes, with every twiddle row generated on the fly into O(n1) worker
// scratch. The sub-FFTs reuse the ordinary tree planner, so the whole
// codelet tier and wisdom-free tuning machinery carries over; the (n1, tile)
// choice itself is ranked by the analytic model and only the top candidates
// are measured inside PlanBudget (search.BestFourStepCtx).
//
// The tier deliberately does not consult or feed the Wisdom store: wisdom
// slots hold factorization trees, and recording a tree for these sizes would
// invite a later plan to build it through the tree executor — materializing
// exactly the O(N) twiddle state the tier exists to avoid.

// DefaultLargeNThreshold is the transform size at which NewPlan switches to
// the four-step large-N tier when Options.LargeNThreshold is left zero:
// 2^22 complex128 elements (64 MiB per buffer) dwarfs every cache level the
// cost model knows about.
const DefaultLargeNThreshold = 1 << 22

// errNoFourStepSplit reports a size the four-step tier cannot decompose
// (prime, or no µ-aligned factor pair for the requested worker count); the
// caller falls back to the tree planner.
var errNoFourStepSplit = errors.New("spiralfft: no admissible four-step split")

// fourStepInfo records the large-N tier's choice on the plan.
type fourStepInfo struct {
	n1, tile int
}

// fourStepSplitFor reports whether an admissible split n = n1·n2 exists for
// the four-step schedule on p workers with cache-line length mu (both
// factors multiples of µ and at least p when p > 1).
func fourStepSplitFor(n, p, mu int) (n1 int, ok bool) {
	for m := 2; m*m <= n; m++ {
		if n%m != 0 {
			continue
		}
		k := n / m
		if p > 1 && (m%mu != 0 || k%mu != 0 || m < p || k < p) {
			continue
		}
		n1, ok = m, true
	}
	return n1, ok
}

// fourStepChoiceFor ranks every admissible (n1, tile) pair with the analytic
// cost model and returns the cheapest, or ok == false when no admissible
// split exists. This is the fixed planner's stand-in for measurement: fully
// deterministic, and at the sizes this tier serves the model's memory-traffic
// terms dominate the ordering — notably the column-gather term, which breaks
// the n1 ↔ n2 symmetry toward skewed splits with a cache-resident n2. A
// model tie goes to the larger n1, matching the measured preference.
func fourStepChoiceFor(n, p, mu int) (n1, tile int, ok bool) {
	model := cost.Default()
	best := math.Inf(1)
	for d := 2; d*d <= n; d++ {
		if n%d != 0 {
			continue
		}
		for _, c := range [2]int{d, n / d} {
			k := n / c
			if k < 2 {
				continue
			}
			if p > 1 && (c%mu != 0 || k%mu != 0 || c < p || k < p) {
				continue
			}
			for _, t := range search.TransposeTiles {
				s := model.FourStep(n, c, p, t, nil, nil)
				if s < best || (s == best && c > n1) {
					best, n1, tile, ok = s, c, t, true
				}
			}
		}
	}
	return n1, tile, ok
}

// planFourStep builds the plan through the large-N tier. On success the plan
// serves transforms without ever holding an O(N) twiddle table: seqExe runs
// the sequential four-step program, and for Workers > 1 exe runs the
// worker-partitioned variant of the same split (seqExe stays as the
// post-Close fallback, mirroring the tree families). Returns
// errNoFourStepSplit (or a tuning error) when the tier cannot serve the
// size; the caller then falls back to the tree planner.
func (p *Plan) planFourStep(tuner *search.Tuner) error {
	opt := p.opt
	n := p.n
	if opt.Planner == PlannerFixed {
		// Deterministic path: model-ranked (n1, tile) with greedy radix
		// sub-trees. No measurements, like the tree planner's fixed path.
		n1, tile, ok := fourStepChoiceFor(n, opt.Workers, opt.CacheLineComplex)
		if !ok {
			if n1, tile, ok = fourStepChoiceFor(n, 1, opt.CacheLineComplex); !ok {
				return errNoFourStepSplit
			}
			// Split exists but not for p workers: run the tier sequentially.
			return p.buildFourStep(n1, tile,
				exec.RadixTree(n/n1), exec.RadixTree(n1), nil)
		}
		var backend smp.Backend
		if opt.Workers > 1 {
			backend = newBackendFor(opt, opt.Workers)
		}
		return p.buildFourStep(n1, tile,
			exec.RadixTree(n/n1), exec.RadixTree(n1), backend)
	}

	// Tuned path: the search ranks every (n1, tile) pair analytically and
	// measures the top candidates inside the active budget.
	workers := 1
	var backend smp.Backend
	if opt.Workers > 1 {
		if _, ok := fourStepSplitFor(n, opt.Workers, opt.CacheLineComplex); ok {
			workers = opt.Workers
			backend = newBackendFor(opt, workers)
		}
	}
	choice, err := tuner.BestFourStepCtx(context.Background(), n, workers, opt.CacheLineComplex, backend)
	if err != nil {
		return err
	}
	p.fourStep = &fourStepInfo{n1: choice.N1, tile: choice.Tile}
	p.m, p.ltree, p.rtree = choice.N1, choice.RowTree, choice.ColTree
	if backend != nil {
		// The winner references the backend; a sequential variant of the
		// same split stays behind as the post-Close fallback.
		p.exe, p.backend = choice.Exe, backend
		seqProg, err := ir.LowerFourStep(n, choice.N1, ir.FourStepConfig{
			P: 1, Mu: opt.CacheLineComplex, Tile: choice.Tile,
			ColTree: choice.ColTree, RowTree: choice.RowTree,
		})
		if err == nil {
			p.seqExe, err = ir.NewExecutor(seqProg, nil)
		}
		if err != nil {
			p.exe, p.backend, p.fourStep = nil, nil, nil
			return err
		}
		return nil
	}
	p.seqExe = choice.Exe
	return nil
}

// buildFourStep lowers and compiles the four-step schedule for a fixed
// (n1, tile) choice: the sequential program into seqExe always, and the
// worker-partitioned program onto the backend when one is supplied.
func (p *Plan) buildFourStep(n1, tile int, col, row *exec.Tree, backend smp.Backend) error {
	opt := p.opt
	seqProg, err := ir.LowerFourStep(p.n, n1, ir.FourStepConfig{
		P: 1, Mu: opt.CacheLineComplex, Tile: tile, ColTree: col, RowTree: row,
	})
	if err == nil {
		p.seqExe, err = ir.NewExecutor(seqProg, nil)
	}
	if err != nil {
		return err
	}
	p.fourStep = &fourStepInfo{n1: n1, tile: tile}
	p.m, p.ltree, p.rtree = n1, row, col
	if backend == nil {
		return nil
	}
	parProg, err := ir.LowerFourStep(p.n, n1, ir.FourStepConfig{
		P: opt.Workers, Mu: opt.CacheLineComplex, Tile: tile, ColTree: col, RowTree: row,
	})
	if err == nil {
		var exe *ir.Executor
		if exe, err = ir.NewExecutor(parProg, backend); err == nil {
			p.exe, p.backend = exe, backend
			return nil
		}
	}
	// The sequential four-step executor is already in place; a parallel
	// compile failure degrades to sequential service rather than failing
	// the plan.
	return nil
}
