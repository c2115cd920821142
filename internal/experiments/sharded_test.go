package experiments

import (
	"bytes"
	"testing"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// diffOptions keeps the differential sweeps fast: every generator runs
// twice, so the per-point populations are minimal.
func diffOptions(shards int) Options {
	return Options{Seed: 1, Iterations: 4, ShuffleScale: 128, StreamBytes: 2 << 20, Shards: shards}
}

// renderAll runs every generator at the given shard worker count and
// returns the rendered figures (table + CSV — the strombench stdout).
func renderAll(t *testing.T, gens []Generator, shards int) []string {
	t.Helper()
	out := make([]string, 0, len(gens))
	for _, g := range gens {
		fig, err := g.Run(diffOptions(shards))
		if err != nil {
			t.Fatalf("%s (shards=%d): %v", g.Name, shards, err)
		}
		out = append(out, fig.String()+"\n"+fig.CSV())
	}
	return out
}

// Worker count must never affect simulation results: every figure
// generator — paper figures, ablations and chaos sweeps — must render
// byte-identically whether the sharded testbed executes sequentially
// (1 worker) or in parallel (4 workers, clamped to the 2 shards).
// Generators pinned unsharded run the single-engine testbed in both
// cases, which asserts the pin itself is honored.
func TestShardedFiguresIdenticalAcrossWorkers(t *testing.T) {
	gens := Generators()
	seq := renderAll(t, gens, 1)
	par := renderAll(t, gens, 4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("%s differs between -shards 1 and -shards 4:\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s",
				gens[i].Name, seq[i], par[i])
		}
	}
}

// The instrumented scenario's metrics registry and Perfetto trace must
// also be byte-identical across worker counts — this exercises the
// per-shard trace segments, the per-shard occupancy probes and the
// single-writer telemetry contract end to end.
func TestShardedTelemetryIdenticalAcrossWorkers(t *testing.T) {
	export := func(shards int) (string, string) {
		var m, tr bytes.Buffer
		o := Quick()
		o.Shards = shards
		if err := exportClean(o, Exports{Metrics: &m, Trace: &tr}); err != nil {
			t.Fatalf("exportClean (shards=%d): %v", shards, err)
		}
		return m.String(), tr.String()
	}
	m1, tr1 := export(1)
	m4, tr4 := export(4)
	if m1 != m4 {
		t.Errorf("metrics differ between -shards 1 and -shards 4")
	}
	if tr1 != tr4 {
		t.Errorf("trace differs between -shards 1 and -shards 4")
	}
}

// chaosDigestRun drives a lossy write stream over a sharded testbed under
// a chaos plan and returns the injector's schedule digest, fault totals,
// and the merged fault record log.
func chaosDigestRun(t *testing.T, workers int) (uint64, uint64, string) {
	t.Helper()
	pair, err := testrig.NewSharded(7, core.Profile10G(), fabric.DirectCable10G(), 8<<20, workers)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	faults := chaos.LinkFaults{
		Loss:        chaos.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossGood: 0.002, LossBad: 0.2},
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  3 * sim.Microsecond,
	}
	plan := chaos.Plan{
		AtoB:    faults,
		BtoA:    faults,
		Flaps:   []chaos.Window{{At: sim.Time(80 * sim.Microsecond), Dur: 15 * sim.Microsecond}},
		StallsA: []chaos.Window{{At: sim.Time(40 * sim.Microsecond), Dur: 10 * sim.Microsecond}},
		StallsB: []chaos.Window{{At: sim.Time(120 * sim.Microsecond), Dur: 10 * sim.Microsecond}},
	}
	inj, ca, cb := pair.ApplyChaos(plan)
	const size, msgs = 4 << 10, 200
	remaining := msgs
	var opErr error
	pair.Eng.Schedule(0, func() {
		for i := 0; i < msgs; i++ {
			pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), size, func(err error) {
				if err != nil && opErr == nil {
					opErr = err
				}
				remaining--
			})
		}
	})
	pair.Run()
	if opErr != nil {
		t.Fatalf("workers=%d: %v", workers, opErr)
	}
	if remaining != 0 {
		t.Fatalf("workers=%d: stream stalled with %d remaining", workers, remaining)
	}
	for _, c := range []*chaos.Checker{ca, cb} {
		if vs := c.Finish(); len(vs) != 0 {
			t.Fatalf("workers=%d: protocol violations under chaos: %v", workers, vs)
		}
	}
	var recs string
	for _, r := range inj.Records() {
		recs += r.String() + "\n"
	}
	return inj.ScheduleDigest(), inj.Stats().Total(), recs
}

// The injected chaos schedule is part of the determinism contract: the
// digest over every fault (time, site, kind, delay), the fault totals
// and the merged record log must match between sequential and parallel
// execution of the sharded testbed.
func TestShardedChaosDigestAcrossWorkers(t *testing.T) {
	d1, n1, r1 := chaosDigestRun(t, 1)
	d2, n2, r2 := chaosDigestRun(t, 2)
	if n1 == 0 {
		t.Fatalf("chaos plan injected no faults — the digest comparison is vacuous")
	}
	if d1 != d2 {
		t.Errorf("schedule digest differs: workers=1 %#x, workers=2 %#x", d1, d2)
	}
	if n1 != n2 {
		t.Errorf("fault totals differ: workers=1 %d, workers=2 %d", n1, n2)
	}
	if r1 != r2 {
		t.Errorf("merged fault records differ between workers=1 and workers=2")
	}
}

// Sharded generators must also be safe to run concurrently with each
// other (the -j harness): each run owns a private shard group. A fast
// subset keeps this affordable — the full sweep is covered above.
func TestShardedGeneratorsConcurrent(t *testing.T) {
	gens := []Generator{
		{"fig5a", Fig5aLatency10G},
		{"fig9", Fig9Consistency},
		{"fig13b", Fig13bHLLStRoM},
		{"abl-mtu", AblationMTU},
	}
	o := diffOptions(4)
	results := RunGenerators(gens, o, 4)
	serial := RunGenerators(gens, o, 1)
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", results[i].Name, results[i].Err)
		}
		if got, want := results[i].Fig.String(), serial[i].Fig.String(); got != want {
			t.Errorf("%s differs between -j 4 and -j 1 at -shards 4", results[i].Name)
		}
	}
}
