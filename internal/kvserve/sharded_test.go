package kvserve

import (
	"bytes"
	"strings"
	"testing"

	"strom/internal/core"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// runShardedKVStream runs a clean KV workload on the sharded testbed
// with mid-run telemetry streaming and returns the JSONL stream.
//
// The soundness recipe under test: each server's heartbeat source is
// registered on the engine that owns it (RegisterHealth), and the
// client's latency histograms are resolved through a Registry.Scope
// registered on the client machine's engine — so every mid-run scrape
// touches only state owned by the scraping shard, while the parent
// registry keeps the union for end-of-run inspection.
func runShardedKVStream(t *testing.T) []byte {
	t.Helper()
	net, err := testrig.NewNetSharded(21, 4, core.Profile10G(), kvSwitchConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	parent := telemetry.NewRegistry()
	scope := parent.Scope()
	cl, err := New(net, Config{
		ClientMachine:  0,
		ServerMachines: []int{1, 2, 3},
		NumKeys:        64,
		OpDeadline:     400 * sim.Microsecond,
		Registry:       scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := export.NewRecorder(append(export.DefaultRules(), HeartbeatRule()))
	cl.RegisterHealth(rec)
	rec.Registry(net.Machines[0].Eng, "m0", scope)
	c := cl.Client
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		for key := uint64(1); key <= 64 && runErr == nil; key++ {
			runErr = c.Put(p, key)
		}
		for key := uint64(1); key <= 64 && runErr == nil; key++ {
			_, _, runErr = c.Get(p, key)
		}
	})
	rec.Start(20 * sim.Microsecond)
	net.Run()
	if runErr != nil {
		t.Fatalf("workload: %v", runErr)
	}
	if c.Stats.Retries != 0 || c.Stats.Failovers != 0 || c.Stats.Downs != 0 {
		t.Fatalf("clean sharded run needed recovery: %+v", c.Stats)
	}
	mustZeroViolations(t, cl)
	// After the group's final barrier the parent registry sees the union
	// of everything resolved through the scope.
	hists := 0
	parent.EachHistogram(func(key string, h *telemetry.Histogram) {
		if strings.HasPrefix(key, "kv_op_latency_ps") {
			hists++
			if h.Count() == 0 {
				t.Errorf("parent histogram %s is empty", key)
			}
		}
	})
	if hists != 2 {
		t.Errorf("parent registry has %d kv_op_latency_ps histograms, want 2 (put, get)", hists)
	}
	var w bytes.Buffer
	if err := rec.WriteJSONL(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// The sharded cluster's merged telemetry stream must carry every
// server's heartbeat surface plus the client's scoped histograms, and
// stay alert-silent on a clean run.
func TestShardedKVStream(t *testing.T) {
	tail, err := export.ReadAll(bytes.NewReader(runShardedKVStream(t)))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if fired := tail.FiredAlerts(); len(fired) != 0 {
		t.Fatalf("clean sharded run fired alerts: %v", fired)
	}
	if tail.Metrics == 0 {
		t.Fatal("no registry metrics events: the scoped histograms were never scraped mid-run")
	}
	kv := 0
	for _, o := range tail.Objects {
		if o.Subsystem != "kv" {
			continue
		}
		kv++
		if o.Scrapes < 2 {
			t.Errorf("kv object %s scraped only %d times mid-run", o.Object, o.Scrapes)
		}
		if o.Final["kv_heartbeats"] == 0 {
			t.Errorf("kv object %s shows no heartbeats", o.Object)
		}
	}
	if kv != 3 {
		t.Errorf("stream has %d kv health objects, want 3", kv)
	}
}
