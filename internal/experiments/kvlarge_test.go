package experiments

import (
	"fmt"
	"io"
	"testing"

	"strom/internal/raceflag"
)

// The chaos-kv-large sweep is the torn-read gate: all four regimes must
// complete with a clean audit and zero torn values served (runKVLarge
// fails otherwise), the clean point must see no torn reads at all, and
// every racing point must prove the detect→retry pipeline ran. The
// crash point's orphan-reap and detection gates live in runKVLarge.
// Seeds 1–16: the crash cycles land inside publish windows and the
// racing points' first hot-key Gets inside a racing overwrite by
// construction (crashInPublishWindows, collide), not by what seed 1
// happens to do.
func TestChaosKVLargeSweepRegimes(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			o := Quick()
			o.Seed = seed
			kvLargeSweepRegimes(t, o)
		})
	}
}

func kvLargeSweepRegimes(t *testing.T, o Options) {
	clean, err := runKVLarge(o, kvlFaults{}, Exports{})
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	if clean.TornDetected != 0 || clean.TornFailovers != 0 {
		t.Errorf("clean point saw torn reads: %+v", clean)
	}
	if clean.SpilledReads == 0 || clean.LargePuts == 0 || clean.AckedPuts == 0 {
		t.Errorf("clean point never exercised the large-value path: %+v", clean)
	}
	racing, err := runKVLarge(o, kvlFaults{racing: true}, Exports{})
	if err != nil {
		t.Fatalf("racing: %v", err)
	}
	if racing.TornDetected == 0 || racing.TornRetries == 0 {
		t.Errorf("racing point never detected+retried a torn read: %+v", racing)
	}
	if racing.TornOverwrite < uint64(len(kvlHotKeys)) {
		t.Errorf("racing point detected %d overwrites, want one per scripted collision at least: %+v", racing.TornOverwrite, racing)
	}
	loss, err := runKVLarge(o, kvlFaults{racing: true, loss: true}, Exports{})
	if err != nil {
		t.Fatalf("loss: %v", err)
	}
	if loss.TornDetected == 0 || loss.faults == 0 {
		t.Errorf("loss point never detected a torn read under faults: %+v", loss)
	}
	crash, err := runKVLarge(o, kvlFaults{racing: true, loss: true, crashes: true}, Exports{})
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if crash.TornDetected == 0 || crash.TornRetries == 0 {
		t.Errorf("crash point never detected+retried a torn read: %+v", crash)
	}
	if crash.OrphansReaped == 0 || crash.detectorFires == 0 || crash.Repairs == 0 {
		t.Errorf("crash point never exercised orphan reaping or repair: %+v", crash)
	}
	if crash.faults == 0 {
		t.Errorf("crash point injected no faults: %+v", crash)
	}
}

// The kvlarge scenario's stream must carry the client's torn-read
// surface (TestScenarios holds it to its alert contract: torn-read, the
// detection surface the monitoring side watches, and kv-heartbeat).
func TestKVLargeJSONLAlerts(t *testing.T) {
	run := runScenario(t, "kvlarge")
	if run.err != nil {
		t.Fatal(run.err)
	}
	tail := run.tail
	// The client's torn-read surface must be in the stream with the
	// final counters the audit gated on.
	seen := false
	for _, o := range tail.Objects {
		if o.Subsystem != "kvclient" {
			continue
		}
		seen = true
		if o.Final["kv_torn_detected"] == 0 || o.Final["kv_spilled_reads"] == 0 {
			t.Errorf("kvclient finals show no torn-read work: %v", o.Final)
		}
	}
	if !seen {
		t.Error("stream has no kvclient health object")
	}
}

// The kvlarge stream keeps its alert contract at seeds 2–8 as well
// (TestScenarios holds seed 1 to it): the four crash cycles all fire, so
// kv-heartbeat does, and the racer keeps torn-read moving.
func TestKVLargeStreamGateOverSeeds(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("seven 33 MB streams, each from a single-goroutine run: 9 s, 90 s under -race")
	}
	sc, err := ScenarioByName("kvlarge")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed <= 8; seed++ {
		o := Quick()
		o.Seed = seed
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(sc.Export(o, Exports{JSONL: pw})) }()
		if err := sc.GateStream(pr); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		pr.Close()
	}
}
