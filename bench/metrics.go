package main

// metricDef names one reported metric. The same names, units and directions
// are listed in BENCHMARK.json (kept in step by a test); bounds live only
// there, and -compare reads them from it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the store sees and the benchmark puts a bound
// on; every workload reports every one. Printed by --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"objects_per_key", "count", "lower"},
}

// perLayer is single layers' work, time, waiting and waste — and seven
// user-visible figures that cannot carry a relative bound: CPU per op and
// the four latency metrics, whose run-to-run spread and set-to-set drift on
// the reference box (up to 30 % and 56 %) are past any bound the benchmark
// may set, and failed_frac and stored_bytes_per_key, which are 0 on most
// workloads. Printed by --trace 1; a metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	// From the untraced pass: the recorder, public counters, resource meters.
	{"cpu_us_per_op", "us", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"stored_bytes_per_key", "B", "lower"},
	{"shardstore.first_touch_us", "us", "lower"},
	{"shardstore.route_ns", "ns", "lower"},
	{"async.max_in_flight", "count", "higher"},
	{"fabric.triggers_per_op", "count", "lower"},
	{"closed.p50_ms", "ms", "lower"},
	{"crash.healthy_p50_ms", "ms", "lower"},
	{"crash.max_gap_ms", "ms", "lower"},
	{"lanenet.node_cpu_us_per_op", "us", "lower"},
	{"lanenet.client_cpu_us_per_op", "us", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.heap_peak_mb", "MB", "lower"},
	{"bench.pacer_lag_p99_ms", "ms", "lower"},
	// From the traced pass: spans and the counts taken beside them.
	{"async.submit_ns", "ns", "lower"},
	{"async.queue_wait_us_p50", "us", "lower"},
	{"construction.op_us_p50", "us", "lower"},
	{"fabric.dispatch_ns", "ns", "lower"},
	{"fabric.trigger_rtt_us_p50", "us", "lower"},
	{"lane.transit_us_p50", "us", "lower"},
	{"lane.transit_us_p99", "us", "lower"},
	{"lane.group_size_mean", "count", "higher"},
	{"lane.coalesced_reads_frac", "ratio", "higher"},
	{"baseobj.apply_ns_p50", "ns", "lower"},
	{"rounds.late_response_frac", "ratio", "lower"},
	{"casmax.cas_fail_frac", "ratio", "lower"},
	{"lanenet.frames_per_op", "count", "lower"},
	{"lanenet.bytes_per_op", "B", "lower"},
	{"lanenet.ops_per_frame", "count", "higher"},
	{"bench.traced_triggers_per_op", "count", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	// Direct timed calls at the workload's geometry, and the checker.
	{"cluster.apply_ns", "ns", "lower"},
	{"coded.encode_us", "us", "lower"},
	{"coded.decode_us", "us", "lower"},
	{"spec.check_s", "s", "lower"},
}

// metricValue is one reported figure. N is how many samples stand behind it
// (ops for a quantile, set-ups for setup_s); it is left out of the one-line
// result the PR driver parses, whose metric objects have exactly two keys.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// metricSet collects a run's figures against a fixed list of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

// set records a metric; an unknown name is a harness bug.
func (m *metricSet) set(name string, v float64, n int64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// fill gives every declared metric that was not set the value 0, so a run
// always prints the full list.
func (m *metricSet) fill() {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			m.values[d.Name] = metricValue{Unit: d.Unit}
		}
	}
}
