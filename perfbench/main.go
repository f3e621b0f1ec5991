// Command perfbench is the repository benchmark: it runs one seeded,
// closed-loop workload against the library or an in-process fftd server,
// checks every output it can, and prints the metrics described in
// README.md, ending with one JSON line.
//
//	go run . --workload lib-seq --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"spiralfft"
	"spiralfft/internal/machine"
	"spiralfft/internal/server"
)

// runner runs one workload.
type runner interface {
	// setup builds everything the workload uses from empty caches and
	// returns its wall time; teardown releases it.
	setup() (time.Duration, error)
	teardown()
	// verify checks every op kind on every input variant and returns the
	// number of checks with a message per failed one.
	verify() (int64, []string)
	// run is one timed phase of at least d.
	run(d time.Duration) *phase
	// barrierWait is the total barrier wait of the plans the workload runs.
	barrierWait() (time.Duration, error)
	// ladder adds the workload's own per-layer metrics to out.
	ladder(out map[string]float64) error
	// describe lists the plans, for the report.
	describe() []string
	// kinds and failures give the op kinds and the failed ops of each.
	kinds() mix
	failures() []int64
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	// setups is how many times a run sets the workload up; setup_s is the
	// median.
	setups int
	make   func(seed int64) runner
}

var workloads = []workload{
	{"lib-seq", 15, func(seed int64) runner {
		return newLibBench(libMix(seqSizes), spiralfft.Options{Workers: 1, Planner: spiralfft.PlannerMeasure}, 2, seed)
	}},
	{"lib-par", 3, func(seed int64) runner {
		return newLibBench(libMix(parSizes), spiralfft.Options{
			Workers: 2, Backend: spiralfft.BackendPool, Planner: spiralfft.PlannerMeasure,
		}, 1, seed)
	}},
	{"fftd-default", 21, func(seed int64) runner {
		return newFFTDBench(fftdMix, server.Config{}, 1, seed)
	}},
}

func main() {
	name := flag.String("workload", "", "workload to run: lib-seq, lib-par or fftd-default")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and op order")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the per-layer ladder and prints its metrics instead")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments\n")
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(w *workload, seed int64, d time.Duration, trace bool) (*result, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d go=%s host=%s\n",
		w.name, seed, d.Seconds(), trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), machine.Host().Fingerprint())
	b := w.make(seed)
	setups := make([]float64, 0, w.setups)
	for i := 0; i < w.setups; i++ {
		if i > 0 {
			b.teardown()
		}
		t, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t.Seconds())
	}
	defer b.teardown()
	for _, line := range b.describe() {
		fmt.Println("plan", line)
	}

	attempted, errs := b.verify()
	runtime.GC()
	if trace {
		d /= 2
	}
	plain := b.run(d)
	e2e := plain.endToEnd(median(setups))
	attempted += plain.ops

	var layers map[string]float64
	if trace {
		var traced *phase
		var err error
		if layers, traced, err = tracedPhase(b, d); err != nil {
			return nil, err
		}
		attempted += traced.ops
		printEndToEnd(e2e, traced.endToEnd(median(setups)))
	} else {
		printEndToEnd(e2e, nil)
	}

	n, errs2 := b.verify()
	attempted += n
	errs = append(errs, errs2...)
	var failed int64
	for k, f := range b.failures() {
		failed += f
		if f > 0 {
			fmt.Printf("FAILED %s: %d ops\n", b.kinds()[k].name, f)
		}
	}
	for _, e := range errs {
		fmt.Println("FAILED", e)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	if trace {
		for _, m := range layerDefs() {
			res.Metrics[m.Name] = value{layers[m.Name], m.Unit}
		}
		printLayers(layers)
	} else {
		for _, m := range endToEndDefs {
			res.Metrics[m.Name] = value{e2e[m.Name], m.Unit}
		}
	}
	return res, nil
}

// tracedPhase repeats the timed phase with the library's metrics recording
// on, collects the pool and barrier counters it moved, and then runs the
// per-layer ladder.
func tracedPhase(b runner, d time.Duration) (map[string]float64, *phase, error) {
	layers := map[string]float64{}
	runtime.GC()
	spiralfft.EnableMetrics()
	pools0 := spiralfft.PoolTotals()
	bw0, err := b.barrierWait()
	if err != nil {
		return nil, nil, err
	}
	traced := b.run(d)
	pools1 := spiralfft.PoolTotals()
	bw1, err := b.barrierWait()
	spiralfft.DisableMetrics()
	if err != nil {
		return nil, nil, err
	}
	layers["ir.barrier_wait_us_per_op"] = float64((bw1 - bw0).Nanoseconds()) / 1e3 / float64(traced.ops)
	if regions := float64(pools1.Regions - pools0.Regions); regions > 0 {
		layers["smp.spin_per_region"] = float64(pools1.SpinWakeups-pools0.SpinWakeups) / regions
		layers["smp.yield_per_region"] = float64(pools1.YieldWakeups-pools0.YieldWakeups) / regions
		layers["smp.park_per_region"] = float64(pools1.ParkWakeups-pools0.ParkWakeups) / regions
		layers["smp.join_yields_per_region"] = float64(pools1.JoinYields-pools0.JoinYields) / regions
	}
	layers["smp.live_pools"] = float64(pools1.Live)
	if err := commonLadder(layers); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	if err := b.ladder(layers); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	return layers, traced, nil
}

// printEndToEnd prints the end-to-end metrics, with fail_frac alongside
// ok_frac, and the traced run's next to them when there is one.
func printEndToEnd(plain, traced map[string]float64) {
	fmt.Printf("%-16s %14s %14s  %s\n", "metric", "untraced", "traced", "unit")
	for _, m := range endToEndDefs {
		t := "-"
		if traced != nil {
			t = fmt.Sprintf("%.4g", traced[m.Name])
		}
		fmt.Printf("%-16s %14.4g %14s  %s\n", m.Name, plain[m.Name], t, m.Unit)
	}
	t := "-"
	if traced != nil {
		t = fmt.Sprintf("%.4g", 1-traced["ok_frac"])
	}
	fmt.Printf("%-16s %14.4g %14s  %s\n", "fail_frac", 1-plain["ok_frac"], t, "ratio")
}

func printLayers(layers map[string]float64) {
	for _, m := range layerDefs() {
		v, ok := layers[m.Name]
		note := ""
		if !ok {
			note = "  (not run by this workload)"
		}
		fmt.Printf("%-40s %14.4g  %s%s\n", m.Name, v, m.Unit, note)
	}
}
