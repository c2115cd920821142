package experiments

import "testing"

// The chaos-kv sweep is the robustness gate: all four regimes must
// complete with a clean audit (runKV fails otherwise), the clean point
// must need no recovery machinery, and the crash points must prove the
// detector→failover→repair pipeline actually ran.
func TestChaosKVSweepRegimes(t *testing.T) {
	clean, err := runKV(Quick(), kvFaults{}, Exports{})
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	if clean.Retries != 0 || clean.Failovers != 0 || clean.Repairs != 0 || clean.detectorFires != 0 {
		t.Errorf("clean point exercised recovery machinery: %+v", clean)
	}
	if clean.AckedPuts == 0 || clean.Gets == 0 {
		t.Errorf("clean point moved no ops: %+v", clean)
	}
	storm, err := runKV(Quick(), kvFaults{loss: true, crashes: true, storm: true}, Exports{})
	if err != nil {
		t.Fatalf("storm: %v", err)
	}
	if storm.detectorFires == 0 || storm.Failovers == 0 || storm.Repairs == 0 {
		t.Errorf("storm point never exercised detection/failover/repair: %+v", storm)
	}
	if storm.Retries == 0 || storm.DupSuppressed == 0 || storm.RKeyRefetches == 0 {
		t.Errorf("storm point never exercised the retry protocol: %+v", storm)
	}
	if storm.faults == 0 {
		t.Errorf("storm point injected no faults: %+v", storm)
	}
}

// The kv scenario's stream must show both crash cycles detected
// (kv-heartbeat is how the failover controller learns of a crash, so it
// firing is a correctness property, not a nicety; TestScenarios holds
// the stream to the rest of its alert contract) and every server's
// heartbeat surface.
func TestKVJSONLAlerts(t *testing.T) {
	run := runScenario(t, "kv")
	if run.err != nil {
		t.Fatal(run.err)
	}
	tail := run.tail
	// Both crash cycles must be detected AND resolve: the stream ends
	// with every server restarted, heartbeats moving again.
	if got := tail.Fired("kv-heartbeat"); got < 2 {
		t.Errorf("kv-heartbeat fired %d times, want both crash cycles detected", got)
	}
	// Every KV server's heartbeat surface must be in the stream.
	seen := 0
	for _, o := range tail.Objects {
		if o.Subsystem == "kv" {
			seen++
			if o.Scrapes < 2 {
				t.Errorf("kv object %s scraped only %d times", o.Object, o.Scrapes)
			}
		}
	}
	if seen != kvServers {
		t.Errorf("stream has %d kv health objects, want %d", seen, kvServers)
	}
}
