package main

import "fmt"

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDefs are the metrics of an untraced run, the same on every
// workload.
var endToEndDefs = []metricDef{
	{"mflops", "Mflop/s", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_peak_mib", "MiB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// codeletSizes are the leaf sizes whose codelets the ladder times: every
// power of two a plan of the library workloads can end in.
var codeletSizes = []int{2, 4, 8, 16, 32, 64, 128, 256}

// wirePayloads are the payloads of the fftd mix, as wire codec calls:
// "c<n>" is n complex values, "f<n>" n floats.
var wirePayloads = []string{"c256", "c1024", "c2049", "c4096", "f4096"}

// layerDefs are the metrics of a traced run: the per-layer ladder, the
// same list on every workload. A metric of a layer that a workload does not
// run (the library plan ladder on fftd-default, server and HTTP on the
// library workloads) reads 0 there; see README.md.
func layerDefs() []metricDef {
	var d []metricDef
	add := func(unit, better, format string, args ...any) {
		d = append(d, metricDef{fmt.Sprintf(format, args...), unit, better})
	}
	for _, n := range codeletSizes {
		add("ns", "lower", "codelet.apply_ns.n%d", n)
	}
	for _, n := range seqSizes {
		add("ns", "lower", "exec.seq_ns.n%d", n)
	}
	for _, n := range parSizes {
		add("ns", "lower", "exec.seq_ns.n%d.left", n)
		add("ns", "lower", "exec.seq_ns.n%d.right", n)
	}
	for _, sizes := range [][4]int{seqSizes, parSizes} {
		for _, n := range sizes {
			add("ns", "lower", "ir.exec_ns.n%d", n)
		}
	}
	add("us", "lower", "ir.barrier_wait_us_per_op")
	for _, sizes := range [][4]int{seqSizes, parSizes} {
		for _, n := range sizes {
			add("ns", "lower", "plan.forward_ns.n%d", n)
			add("ns", "lower", "plan.inverse_ns.n%d", n)
			add("ms", "lower", "plan.build_ms.n%d", n)
			add("ms", "lower", "search.tune_ms.n%d", n)
			add("count", "lower", "search.measured.n%d", n)
		}
	}
	add("ns", "lower", "smp.dispatch_ns")
	add("1/region", "higher", "smp.spin_per_region")
	add("1/region", "lower", "smp.yield_per_region")
	add("1/region", "lower", "smp.park_per_region")
	add("1/region", "lower", "smp.join_yields_per_region")
	add("count", "lower", "smp.live_pools")
	for _, p := range wirePayloads {
		add("MiB/s", "higher", "wire.read_mib_s.%s", p)
		add("MiB/s", "higher", "wire.write_mib_s.%s", p)
	}
	for _, k := range fftdMix {
		add("us", "lower", "server.transform_us.%s", k.name)
	}
	add("count", "lower", "server.shed")
	add("count", "lower", "server.plan_count")
	for _, k := range fftdMix {
		add("us", "lower", "http.request_us.%s", k.name)
		add("us", "lower", "http.overhead_us.%s", k.name)
	}
	return d
}
