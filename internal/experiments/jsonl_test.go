package experiments

import (
	"bytes"
	"sync"
	"testing"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/sim"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// runJSONL runs the clean scenario's streaming export.
func runJSONL(t *testing.T, o Options) []byte {
	t.Helper()
	var w bytes.Buffer
	if err := exportClean(o, Exports{JSONL: &w}); err != nil {
		t.Fatalf("exportClean: %v", err)
	}
	return w.Bytes()
}

// The JSONL stream must be byte-identical across repeated same-seed
// runs and concurrent runs (the -j N harness case).
func TestJSONLByteIdentical(t *testing.T) {
	base := runJSONL(t, Quick())
	if len(base) == 0 {
		t.Fatal("empty JSONL stream")
	}
	const workers = 4
	var wg sync.WaitGroup
	outs := make([][]byte, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var w bytes.Buffer
			errs[i] = exportClean(Quick(), Exports{JSONL: &w})
			outs[i] = w.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], base) {
			t.Errorf("concurrent run %d: stream differs from sequential run", i)
		}
	}
}

// The clean stream scrapes each machine's registry scope on that
// machine's shard: it carries metrics events from both machines, and is
// byte-identical on a second run.
func TestJSONLPerMachineMetricsByteIdentical(t *testing.T) {
	one := runJSONL(t, Quick())
	if !bytes.Equal(one, runJSONL(t, Quick())) {
		t.Error("clean stream differs on a second run")
	}
	byHost := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(one), []byte("\n")) {
		ev, err := export.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == "metrics" {
			byHost[ev.Host]++
		}
	}
	if len(byHost) != 2 || byHost["A"] == 0 || byHost["B"] == 0 {
		t.Errorf("metrics events by host %v, want events from A and from B", byHost)
	}
}

// The clean scenario's stream must cover every health surface and
// account for the whole workload (TestScenarios holds it to its alert
// contract: the loss phase trips out-discards, and the workload
// always completes, so the watchdog in particular stays silent).
func TestJSONLScenarioContent(t *testing.T) {
	run := runScenario(t, "clean")
	if run.err != nil {
		t.Fatal(run.err)
	}
	tail := run.tail
	if len(tail.Objects) != 4 {
		t.Fatalf("stream has %d objects, want 4 (two ports, two link directions)", len(tail.Objects))
	}
	if tail.Metrics == 0 {
		t.Fatal("no registry metrics events in the stream")
	}
	for _, o := range tail.Objects {
		if o.Scrapes < 2 {
			t.Errorf("object %s/%s scraped only %d times", o.Subsystem, o.Object, o.Scrapes)
		}
	}
	// The final NIC scrapes must account for the whole workload.
	for _, o := range tail.Objects {
		if o.Subsystem != "port" {
			continue
		}
		if o.Final["ops_posted"] == 0 && o.Object == "nic:A" {
			t.Errorf("nic:A finished with ops_posted=0")
		}
		if o.Final["ops_posted"] != o.Final["ops_completed"] {
			t.Errorf("%s: ops_posted=%d != ops_completed=%d at end of run",
				o.Object, o.Final["ops_posted"], o.Final["ops_completed"])
		}
	}
}

// The chaos scenario's drop causes must be attributed (TestScenarios
// proves it drives the alert engine: loss bursts and flaps trip
// out-discards and link-flap, the rogue requester remote-access and
// qp-errors).
func TestJSONLChaosAlertsFire(t *testing.T) {
	run := runScenario(t, "chaos")
	if run.err != nil {
		t.Fatal(run.err)
	}
	tail := run.tail
	// Drop causes must be attributed: the plan has both GE loss and
	// flap windows, and the per-cause counters must sum to the total.
	// Each direction sends inside a flap: A as its first DMA stall ends,
	// B as one of its stalls does.
	for _, o := range tail.Objects {
		if o.Subsystem != "link" {
			continue
		}
		sum := o.Final["out_discards_chaos"] + o.Final["out_discards_flap"] + o.Final["out_discards_offline"]
		if sum != o.Final["out_discards"] {
			t.Errorf("%s: drop causes sum to %d, aggregate is %d", o.Object, sum, o.Final["out_discards"])
		}
		if o.Final["out_discards_chaos"] == 0 || o.Final["out_discards_flap"] == 0 {
			t.Errorf("%s: expected both chaos and flap discards, got %v", o.Object, o.Final)
		}
	}
}

// A genuinely clean run — no impairment, no chaos — must keep every
// alert rule silent.
func TestJSONLCleanRunSilent(t *testing.T) {
	pair, err := testrig.New(11, core.Profile10G(), fabric.DirectCable10G(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tel := pair.Instrument()
	rec := export.NewRecorder(export.DefaultRules())
	pair.RecordJSONL(rec, tel)
	var runErr error
	pair.Eng.Go("clean-client", func(p *sim.Process) {
		for i := 0; i < 8 && runErr == nil; i++ {
			runErr = pair.A.WriteSync(p, testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), 16<<10)
		}
	})
	var w bytes.Buffer
	rec.StreamTo(export.NewWriterSink(&w))
	rec.Start(2 * sim.Microsecond)
	pair.Run()
	if runErr != nil {
		t.Fatalf("workload: %v", runErr)
	}
	if err := rec.Drain(); err != nil {
		t.Fatal(err)
	}
	tail, err := export.ReadAll(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if fired := tail.FiredAlerts(); len(fired) != 0 {
		t.Fatalf("clean run fired alerts: %v", fired)
	}
	for _, o := range tail.Objects {
		if o.Final["out_discards"] != 0 || o.Final["fcs_err"] != 0 {
			t.Errorf("%s: clean run shows errors: %v", o.Object, o.Final)
		}
	}
}

// Blackholing the link mid-operation must trip the no-progress
// watchdog: an op stays outstanding while ops_completed is flat.
func TestJSONLWatchdogFiresOnBlackhole(t *testing.T) {
	pair, err := testrig.New(13, core.Profile10G(), fabric.DirectCable10G(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rec := export.NewRecorder(export.DefaultRules())
	pair.RecordJSONL(rec, nil)
	pair.Eng.Go("blackholed-client", func(p *sim.Process) {
		// The write goes into a dead link: every retransmission is
		// discarded until the retry budget gives up (~8 ms at the 10 G
		// profile's 500 µs timer — far past the 2 ms watchdog hold).
		err := pair.A.WriteSync(p, testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), 4<<10)
		if err == nil {
			t.Error("blackholed write completed successfully")
		}
	})
	pair.Link.SetOfflineAtoB(true)
	pair.Link.SetOfflineBtoA(true)
	rec.Start(100 * sim.Microsecond)
	pair.Run()
	if rec.Fired("watchdog") == 0 {
		t.Fatal("watchdog did not fire on a blackholed operation")
	}
	if rec.Fired("qp-errors") == 0 {
		t.Error("exhausting the retry budget did not trip qp-errors")
	}
}
