package main

import (
	"strom/internal/core"
	"strom/internal/fabric"
)

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// declares them. Round sizes put one round, set-up included, at 0.25-0.33 s
// of host time on the 2-core box the benchmark was written on, so that
// minTimedRounds rounds fit in runSeconds with room for a slow period.
func workloads() []*workload {
	return []*workload{
		verbsWorkload("verbs-small",
			"64 B WRITE/READ at window 16 on the 10 G cable: per-packet cost of sim, packet, roce, pcie and the doorbell; bypasses switch, kernels, kvserve, processes",
			100_000, verbsShape{
				profile: core.Profile10G, cable: fabric.DirectCable10G,
				window: 16, size: 64, srcBytes: 1 << 20, mixed: true,
			}),
		verbsWorkload("verbs-bulk",
			"64 KiB WRITE/READ at window 4 on the 100 G cable: per-byte cost of segmentation, copies, ICRC, hostmem and TLB splits; the pair to verbs-small",
			1_600, verbsShape{
				profile: core.Profile100G, cable: fabric.DirectCable100G,
				window: 4, size: 64 << 10, srcBytes: 4 << 20,
			}),
		kernelRPCWorkload(2_800),
		kvWorkload("kv-inline",
			"replicated KV on the PFC/ECN switch, failure detector scraping, two client processes: Get/Put/Delete of inline values; kvserve, fabric.Switch, telemetry/export; never touches extents or kernels",
			12_000, false),
		kvWorkload("kv-large",
			"the same store holding spilled values: a Get is a slot READ then a consistency-kernel extent read, a Put an extent write then a slot publish; the pair to kv-inline",
			5_000, true),
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}
