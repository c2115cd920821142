package main

import "strings"

// metricSpec declares one printed metric. BENCHMARK.json repeats these
// declarations for the driver; benchmark_test.go asserts the two agree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the baseline median the metric may worsen by; 0 for per-layer metrics
}

// simulated reports whether the metric is read off the simulated clock
// and so repeats exactly for a given seed, on every run and every round.
func (s metricSpec) simulated() bool {
	return strings.HasPrefix(s.Name, "sim_") || s.Name == "first_try_ok_share"
}

// endToEnd lists the metrics every untraced run prints, on every
// workload. Host-clock metrics are what the simulator costs; sim_*
// metrics are what the modelled NIC delivers and repeat exactly for a
// given seed.
var endToEnd = []metricSpec{
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.02},
	{"host_alloc_kb_per_op", "KiB", "lower", 0.02},
	{"host_heap_goal_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
	{"sim_ops_per_s", "1/s", "higher", 0.02},
	{"sim_goodput_gbps", "Gbit/s", "higher", 0.03},
	{"sim_read_mean_us", "us", "lower", 0.03},
	{"sim_read_tail_us", "us", "lower", 0.05},
	{"sim_write_mean_us", "us", "lower", 0.03},
	{"sim_write_tail_us", "us", "lower", 0.05},
	{"first_try_ok_share", "ratio", "higher", 0.01},
}

// perLayer lists the metrics a traced run prints, named
// <module>.<metric>. A layer a workload bypasses reports 0.
var perLayer = []metricSpec{
	{"sim.events_per_op", "count", "lower", 0},
	{"sim.host_ns_per_event", "ns", "lower", 0},
	{"sim.cpu_ns_per_op", "ns", "lower", 0},
	{"sim.schedule_fire_ns", "ns", "lower", 0},
	{"sim.process_switch_ns", "ns", "lower", 0},
	{"sim.shard_window_ns", "ns", "lower", 0},
	{"sim.sharded_cost_ratio", "ratio", "lower", 0},
	{"sim.op_p999_us", "us", "lower", 0},
	{"sim.failed_op_share", "ratio", "lower", 0},

	{"packet.encode_ns", "ns", "lower", 0},
	{"packet.decode_ns", "ns", "lower", 0},
	{"packet.frames_per_op", "count", "lower", 0},
	{"crc.icrc_ns_per_kb", "ns", "lower", 0},
	{"crc.crc64_ns_per_kb", "ns", "lower", 0},

	{"fabric.link_frame_ns", "ns", "lower", 0},
	{"fabric.switch_frame_ns", "ns", "lower", 0},
	{"fabric.link_utilisation", "ratio", "higher", 0},
	{"fabric.switch_frames_per_op", "count", "lower", 0},
	{"fabric.pfc_pauses", "count", "lower", 0},
	{"fabric.ecn_marked", "count", "lower", 0},
	{"fabric.discards", "count", "lower", 0},

	{"roce.post_complete_ns", "ns", "lower", 0},
	{"roce.bulk_ns_per_kb", "ns", "lower", 0},
	{"roce.packets_per_op", "count", "lower", 0},
	{"roce.acks_per_op", "count", "lower", 0},
	{"roce.retransmissions", "count", "lower", 0},
	{"roce.timeouts", "count", "lower", 0},

	{"pcie.dma_cmd_ns", "ns", "lower", 0},
	{"hostmem.copy_ns_per_kb", "ns", "lower", 0},
	{"mr.check_ns", "ns", "lower", 0},
	{"pcie.dma_cmds_per_op", "count", "lower", 0},
	{"pcie.dma_bytes_per_op", "B", "lower", 0},
	{"pcie.split_segments_per_op", "count", "lower", 0},
	{"pcie.utilisation_h2c", "ratio", "higher", 0},
	{"pcie.utilisation_c2h", "ratio", "higher", 0},
	{"tlb.lookups_per_op", "count", "lower", 0},
	{"tlb.miss_share", "ratio", "lower", 0},

	{"core.doorbells_per_op", "count", "lower", 0},
	{"core.rpcs_dispatched_per_op", "count", "lower", 0},
	{"core.kernel_dma_reads_per_op", "count", "lower", 0},
	{"core.stream_segments_per_op", "count", "lower", 0},
	{"core.nic_self_ns", "ns", "lower", 0},

	{"kernels.traversal_local_us", "us", "lower", 0},
	{"kernels.consistency_local_us", "us", "lower", 0},
	{"kernels.traversal_hops_per_lookup", "count", "lower", 0},
	{"kernels.traversal_host_ns", "ns", "lower", 0},
	{"kernels.consistency_host_ns_per_kb", "ns", "lower", 0},
	{"kernels.shuffle_host_ns_per_kb", "ns", "lower", 0},
	{"kernels.consistency_retries", "count", "lower", 0},

	{"kvstore.hash_get_ns", "ns", "lower", 0},
	{"kvstore.arena_alloc_ns", "ns", "lower", 0},

	{"kvserve.ops_per_op", "count", "lower", 0},
	{"kvserve.get_p50_us", "us", "lower", 0},
	{"kvserve.put_p50_us", "us", "lower", 0},
	{"kvserve.delete_p50_us", "us", "lower", 0},
	{"kvserve.get_large_p50_us", "us", "lower", 0},
	{"kvserve.put_large_p50_us", "us", "lower", 0},
	{"kvserve.verbs_per_get", "count", "lower", 0},
	{"kvserve.verbs_per_put", "count", "lower", 0},
	{"kvserve.verbs_per_get_large", "count", "lower", 0},
	{"kvserve.verbs_per_put_large", "count", "lower", 0},
	{"kvserve.spilled_get_share", "ratio", "lower", 0},
	{"kvserve.host_ns_per_get", "ns", "lower", 0},
	{"kvserve.host_ns_per_put", "ns", "lower", 0},
	{"kvserve.retries", "count", "lower", 0},
	{"kvserve.failovers", "count", "lower", 0},
	{"kvserve.torn_detected", "count", "lower", 0},

	{"telemetry.counter_inc_ns", "ns", "lower", 0},
	{"telemetry.hist_observe_ns", "ns", "lower", 0},
	{"telemetry.recorder_scrape_ns", "ns", "lower", 0},
	{"telemetry.traced_overhead_ratio", "ratio", "lower", 0},
	{"chaos.checker_overhead_ratio", "ratio", "lower", 0},
}
