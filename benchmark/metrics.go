package main

import "slices"

// metricSpec names one metric of the benchmark.  BENCHMARK.json at the
// repository root lists the same names, units and directions (a test pins
// the two against each other); bound is the share of the baseline median by
// which an end-to-end metric may worsen before -compare calls it a
// regression.  Per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of Forest.Balance sees, measured with
// tracing off.  Every one is emitted on every workload and is never zero.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"balance_wall_s", "s", lower, 0.10},
	{"balance_wall_p75_s", "s", lower, 0.15},
	{"balance_moct_per_s", "Moct/s", higher, 0.10},
	{"pipeline_wall_s", "s", lower, 0.10},
	{"balance_cpu_s", "s", lower, 0.10},
	{"balance_alloc_mb", "MB", lower, 0.05},
	{"live_heap_mb", "MB", lower, 0.03},
}

// perLayer are the single-layer metrics of the traced run, named
// <package>.<what> after the internal package they probe.
var perLayer = []metricSpec{
	{Name: "forest.local_balance_s", Unit: "s", Better: lower},
	{Name: "forest.notify_s", Unit: "s", Better: lower},
	{Name: "forest.query_response_s", Unit: "s", Better: lower},
	{Name: "forest.rebalance_s", Unit: "s", Better: lower},
	{Name: "forest.phase_imbalance", Unit: "ratio", Better: lower},
	{Name: "forest.refine_s", Unit: "s", Better: lower},
	{Name: "forest.coarsen_s", Unit: "s", Better: lower},
	{Name: "forest.partition_s", Unit: "s", Better: lower},
	{Name: "forest.ghost_s", Unit: "s", Better: lower},
	{Name: "forest.checksum_s", Unit: "s", Better: lower},
	{Name: "forest.wire_encode_ns_per_key", Unit: "ns", Better: lower},
	{Name: "forest.wire_decode_ns_per_key", Unit: "ns", Better: lower},
	{Name: "forest.wire_bytes_per_key", Unit: "B", Better: lower},
	{Name: "forest.octants_in", Unit: "count", Better: lower},
	{Name: "forest.octants_out", Unit: "count", Better: lower},
	{Name: "balance.subtree_ns_per_oct", Unit: "ns", Better: lower},
	{Name: "balance.subtree_out_octs", Unit: "count", Better: lower},
	{Name: "linear.sort_ns_per_key", Unit: "ns", Better: lower},
	{Name: "linear.lower_bound_ns_per_key", Unit: "ns", Better: lower},
	{Name: "linear.reduce_ns_per_key", Unit: "ns", Better: lower},
	{Name: "linear.complete_ns_per_key", Unit: "ns", Better: lower},
	{Name: "octant.key_roundtrip_ns", Unit: "ns", Better: lower},
	{Name: "octant.compare_ns", Unit: "ns", Better: lower},
	{Name: "traverse.search_ns_per_leaf", Unit: "ns", Better: lower},
	{Name: "traverse.nodes_visited", Unit: "count", Better: lower},
	{Name: "notify.reverse_s", Unit: "s", Better: lower},
	{Name: "notify.msgs", Unit: "count", Better: lower},
	{Name: "notify.bytes", Unit: "B", Better: lower},
	{Name: "comm_msgs", Unit: "count", Better: lower},
	{Name: "comm_bytes", Unit: "B", Better: lower},
	{Name: "comm.query_response_msgs", Unit: "count", Better: lower},
	{Name: "comm.query_response_bytes", Unit: "B", Better: lower},
	{Name: "comm.notify_msgs", Unit: "count", Better: lower},
	{Name: "comm.notify_bytes", Unit: "B", Better: lower},
	{Name: "comm.partition_bytes", Unit: "B", Better: lower},
	{Name: "comm.max_queue_depth", Unit: "count", Better: lower},
	{Name: "comm.rtt_us", Unit: "us", Better: lower},
	{Name: "comm.stream_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "comm.allgather_us", Unit: "us", Better: lower},
	{Name: "netcomm.rendezvous_s", Unit: "s", Better: lower},
	{Name: "netcomm.wire_bytes", Unit: "B", Better: lower},
	{Name: "netcomm.data_packets", Unit: "count", Better: lower},
	{Name: "netcomm.ack_packets", Unit: "count", Better: lower},
	{Name: "netcomm.retries", Unit: "count", Better: lower},
	{Name: "netcomm.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "mesh.nodes_s", Unit: "s", Better: lower},
	{Name: "mesh.nodes_independent", Unit: "count", Better: lower},
	{Name: "obs.tracer_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.span_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.unattributed_s", Unit: "s", Better: lower},
	{Name: "bench.failed_frac", Unit: "ratio", Better: lower},
}

// specs indexes every metric by name.
var specs = func() map[string]metricSpec {
	m := make(map[string]metricSpec)
	for _, spec := range slices.Concat(endToEnd, perLayer) {
		if _, dup := m[spec.Name]; dup {
			panic("metric " + spec.Name + " defined twice")
		}
		m[spec.Name] = spec
	}
	return m
}()
