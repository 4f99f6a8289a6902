package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile
// is usable only with at least ten samples above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // 10 samples above 990
		{999, 99, 990, false}, // 9 above
		{21, 50, 11, true},
		{20, 50, 10, true},
		{19, 50, 10, false},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v of %d samples = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestBudgetGap pins the layer-budget arithmetic: the gap is the whole
// less the layers, may be negative when microbenchmarks overestimate,
// and every figure is reported in milliseconds.
func TestBudgetGap(t *testing.T) {
	m := map[string]float64{}
	b := budget{wholeNs: 100e6}
	b.layersNs += layerCost{perCallNs: 20, callsPerRep: 2e6}.put(m, "x")
	b.layersNs += layerCost{perCallNs: 10, callsPerRep: 3e6}.put(m, "y")
	b.put(m, "budget.")
	want := map[string]float64{
		"x_ns": 20, "x_calls": 2e6, "y_ns": 10, "y_calls": 3e6,
		"budget.whole_ms": 100, "budget.layers_ms": 70, "budget.gap_ms": 30,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	over := budget{wholeNs: 1e6, layersNs: 1.5e6}
	if got := over.gapNs(); got != -0.5e6 {
		t.Errorf("overestimated gap = %v, want -0.5e6", got)
	}
	if got := perCall(10, 0); got != 0 {
		t.Errorf("perCall with no calls = %v, want 0", got)
	}
}

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json declares
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q unknown to the program", w.Name)
		}
	}
	for _, tab := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tab.json) != len(tab.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", tab.name, len(tab.json), len(tab.defs))
			continue
		}
		for i, d := range tab.defs {
			if tab.json[i].Name != d.name || tab.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", tab.name, i, tab.json[i].Name, tab.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
