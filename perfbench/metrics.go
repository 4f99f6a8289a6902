package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
// Each is the user-visible form of the workload's work; see README.md
// for what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"device_slots_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_us_per_device_slot", "us"},
	{"peak_rss_mb", "MB"},
}

// allocNames are the allocators the session sweep crosses, as
// alloc.ByName spells them.
var allocNames = []string{"equal", "maxweight", "bandit:8", "gradient:0.2"}

// allocMetric is the per-layer metric name of one allocator's
// Allocate+Learn time.
func allocMetric(name string) string {
	return "alloc.allocate_ns." + strings.ReplaceAll(name, ":", "-")
}

// contentAssets are the fleet's content classes.
var contentAssets = []string{"loot", "redandblack"}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not exercise reads 0 with a call count of 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"error_ratio", "ratio"},
		{"budget.whole_ms", "ms"},
		{"budget.layers_ms", "ms"},
		{"budget.gap_ms", "ms"},
		{"trace.overhead_pct", "%"},

		{"fleet.self_ns_per_device_slot", "ns"},
		{"fleet.alloc_bytes_per_device_slot", "B"},
		{"fleet.allocs_per_session", "count"},
		{"stats.sketch_add_ns", "ns"},
		{"stats.sketch_adds", "count"},
		{"queueing.framequeue_ns_per_frame", "ns"},
		{"queueing.frames", "count"},

		{"policy.decide_ns", "ns"},
		{"policy.decide_calls", "count"},
		{"queueing.arrivals_ns", "ns"},
		{"queueing.arrivals_calls", "count"},
		{"delay.service_ns", "ns"},
		{"delay.service_calls", "count"},
		{"delay.frame_cost_ns", "ns"},
		{"delay.frame_cost_calls", "count"},
		{"quality.utility_ns", "ns"},
		{"quality.utility_calls", "count"},

		{"sim.self_ns_per_device_slot", "ns"},
		{"sim.alloc_bytes_per_device_slot", "B"},
	}
	for _, name := range allocNames {
		defs = append(defs, metricDef{allocMetric(name), "ns"})
	}
	defs = append(defs, metricDef{"alloc.allocate_calls", "count"})
	for _, asset := range contentAssets {
		defs = append(defs, metricDef{"content.build_ms." + asset, "ms"})
	}
	return append(defs, []metricDef{
		{"synthetic.generate_ms", "ms"},
		{"octree.build_ms", "ms"},
		{"octree.stream_size_ms", "ms"},
		{"octree.lod_ms", "ms"},
		{"quality.compare_geometry_ms", "ms"},
		{"experiments.content_scenario_ms", "ms"},
		{"budget.setup_whole_ms", "ms"},
		{"budget.setup_layers_ms", "ms"},
		{"budget.setup_gap_ms", "ms"},

		{"edge.p50_ms_light", "ms"},
		{"edge.samples_light", "count"},
		{"edge.p99_ms_heavy", "ms"},
		{"edge.samples_heavy", "count"},
		{"edge.generator_late_ms", "ms"},
		{"stream.write_frame_us", "us"},
		{"stream.rtt_ms", "ms"},
		{"stream.served_over_offered", "ratio"},
		{"alloc.share_bps.conn0", "B/s"},
		{"alloc.share_bps.conn1", "B/s"},
		{"octree.decode_us_per_frame", "us"},
		{"stream.served", "count"},
		{"stream.acked", "count"},
		{"stream.ack_failures", "count"},
		{"stream.corrupt", "count"},
		{"stream.shed", "count"},
	}...)
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object from measured values: every def is
// present, a def without a value reads 0, and values without a def are
// dropped.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// minBeyond is how many samples must lie beyond a percentile before
// that percentile is reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether
// it may be reported: at least minBeyond samples must lie above it.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return s[k], n-1-k >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// budget sets the sum of a workload's layer times beside the measured
// whole, per unit of work (one fleet run, one sweep, one edge frame,
// one set-up). The whole comes from the untraced pass; layer times are
// timed calls or microbenchmark cost × the traced pass's call counts.
type budget struct {
	wholeNs  float64
	layersNs float64
}

// gapNs is the part of the whole no layer accounts for: for a slot
// loop, the loop's own time (its self time).
func (b budget) gapNs() float64 { return b.wholeNs - b.layersNs }

// put writes the budget's metrics under prefix ("budget." or
// "budget.setup_").
func (b budget) put(m map[string]float64, prefix string) {
	m[prefix+"whole_ms"] = b.wholeNs / 1e6
	m[prefix+"layers_ms"] = b.layersNs / 1e6
	m[prefix+"gap_ms"] = b.gapNs() / 1e6
}

// perCall divides total nanoseconds by a call count; 0 for no calls.
func perCall(ns float64, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return ns / float64(calls)
}

// layerCost is one layer's time per call and calls per repetition.
type layerCost struct {
	perCallNs, callsPerRep float64
}

// perRep is the layer's time per repetition.
func (c layerCost) perRep() float64 { return c.perCallNs * c.callsPerRep }

// put writes the cost as name_ns and name_calls and returns the
// layer's time per repetition.
func (c layerCost) put(m map[string]float64, name string) float64 {
	m[name+"_ns"] = c.perCallNs
	m[name+"_calls"] = c.callsPerRep
	return c.perRep()
}

// overheadPct is how much slower the traced measurement ran than the
// untraced one, as a percentage of the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}
