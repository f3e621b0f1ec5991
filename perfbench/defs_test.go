package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end %v,\nprogram reports %v", spec.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(spec.PerLayer, layerDefs()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's layerDefs")
	}
}
