package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"strom/internal/fabric"
	"strom/internal/fpga"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
)

// echoParams encodes the echoKernel parameter block.
func echoParams(va uint64, n int, target uint64) []byte {
	p := make([]byte, 20)
	binary.LittleEndian.PutUint64(p[0:8], va)
	binary.LittleEndian.PutUint32(p[8:12], uint32(n))
	binary.LittleEndian.PutUint64(p[12:20], target)
	return p
}

// TestCrashFailsPostsFast: verbs posted on a crashed machine complete
// immediately with ErrMachineDown, which the unified taxonomy exposes as
// an ErrQPError.
func TestCrashFailsPostsFast(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	r.a.Crash()
	if !r.a.Crashed() {
		t.Fatal("not crashed")
	}
	var got error
	r.eng.Schedule(0, func() {
		r.a.PostWrite(1, uint64(r.bufA.Base()), uint64(r.bufB.Base()), 64, func(err error) { got = err })
	})
	r.eng.Run()
	if !errors.Is(got, ErrMachineDown) || !errors.Is(got, roce.ErrQPError) {
		t.Errorf("err = %v, want ErrMachineDown (an ErrQPError)", got)
	}
	// Crash is idempotent.
	r.a.Crash()
	if r.a.Stats().Crashes != 1 {
		t.Errorf("Crashes = %d", r.a.Stats().Crashes)
	}
}

// TestCrashAbortsKernelFSM: a kernel FSM whose DMA completion lands after
// the crash must abort instead of resuming on a powered-off device.
func TestCrashAbortsKernelFSM(t *testing.T) {
	cfg := Profile10G()
	// Stretch the PCIe round trip so the crash window is unmissable.
	cfg.PCIe.ReadLatency = 100 * sim.Microsecond
	r := newRig(t, 1, cfg, fabric.DirectCable10G())
	k := &echoKernel{}
	if err := r.a.DeployKernel(0x10, k); err != nil {
		t.Fatal(err)
	}
	want := []byte("never echoed")
	if err := r.a.Memory().WriteVirt(r.bufA.Base()+4096, want); err != nil {
		t.Fatal(err)
	}
	r.eng.Schedule(0, func() {
		r.a.InvokeLocal(0x10, 1, echoParams(uint64(r.bufA.Base())+4096, len(want), uint64(r.bufB.Base())), nil)
	})
	// The kernel is invoked and issues its DMA read; the machine dies
	// long before the 100 us PCIe round trip completes.
	r.eng.ScheduleAt(sim.Time(10*sim.Microsecond), r.a.Crash)
	r.eng.Run()
	if k.invocations != 1 {
		t.Fatalf("invocations = %d (crash landed before the kernel ran)", k.invocations)
	}
	if r.a.Stats().KernelAborts == 0 {
		t.Error("KernelAborts = 0, want the orphaned DMA completion counted")
	}
	got, _ := r.b.Memory().ReadVirt(r.bufB.Base(), len(want))
	if bytes.Equal(got, want) {
		t.Error("aborted kernel still delivered its RDMA write")
	}
}

// logKernel records every input it is handed, in order, with a copy of
// its bytes.
type logKernel struct{ log []string }

func (k *logKernel) Name() string { return "log" }

func (k *logKernel) Invoke(ctx *Context, qpn uint32, params []byte) {
	k.log = append(k.log, "invoke "+string(params))
}

func (k *logKernel) Stream(ctx *Context, qpn uint32, data []byte, last bool) {
	k.log = append(k.log, fmt.Sprintf("stream %s last=%v", data, last))
}

func (k *logKernel) Resources() fpga.Resources { return fpga.Resources{} }

// TestCrashAbortsQueuedInvoke is the crash and order drill for the kernel
// pipeline queue that Params messages and RPC WRITE segments share. A
// Params message and two segments still in the pipeline when the NIC
// crashes never reach the kernel, and each is counted as an abort; their
// pooled buffers go back to the pool once. After a restart, interleaved
// Params and segments reach the kernel in arrival order, each with its
// own bytes, although the caller reuses its buffer at once (a handler
// called outside the stack's receive path, whose bytes the NIC copies).
func TestCrashAbortsQueuedInvoke(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	k := &logKernel{}
	if err := r.b.DeployKernel(0x20, k); err != nil {
		t.Fatal(err)
	}
	feed := func(inputs ...string) {
		buf := make([]byte, 2)
		for i, in := range inputs {
			copy(buf, in[1:])
			var err error
			if in[0] == 'P' {
				err = r.b.HandleRPCParams(2, 0x20, buf)
			} else {
				err = r.b.HandleRPCWrite(2, 0x20, buf, i == len(inputs)-1)
			}
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, "!!")
		}
	}
	r.eng.Schedule(0, func() {
		feed("Pp0", "Ss0", "Ss1")
		r.b.Crash()
	})
	r.eng.Run()
	if len(k.log) != 0 {
		t.Errorf("kernel ran %q after the crash", k.log)
	}
	if got := r.b.Stats().KernelAborts; got != 3 {
		t.Errorf("KernelAborts = %d, want 3", got)
	}
	r.b.Restart()
	r.eng.Schedule(0, func() { feed("Pp1", "Sa1", "Pp2", "Sa2", "Sa3") })
	r.eng.Run()
	want := []string{"invoke p1", "stream a1 last=false", "invoke p2", "stream a2 last=false", "stream a3 last=true"}
	if fmt.Sprint(k.log) != fmt.Sprint(want) {
		t.Errorf("kernel saw %q, want %q", k.log, want)
	}
	seen := make(map[*byte]bool)
	for i := 0; i < 64; i++ {
		b := packet.GetBuf()
		array := &b[:1][0]
		if seen[array] {
			t.Fatalf("GetBuf call %d returned an array an earlier call returned: a pipeline buffer was released twice", i+1)
		}
		seen[array] = true
	}
}

// TestPeerCrashDetectedByDeadline: the surviving peer notices a dead
// machine through its verb deadline — milliseconds before retry
// exhaustion would fire — and the late transport flush does not complete
// the verb a second time.
func TestPeerCrashDetectedByDeadline(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	r.b.Crash()
	const deadline = 50 * sim.Microsecond
	var got error
	var at sim.Time
	count := 0
	r.eng.Schedule(0, func() {
		r.a.Post(1, Verb{Op: OpWrite, LocalVA: uint64(r.bufA.Base()), RemoteVA: uint64(r.bufB.Base()), Len: 512,
			Deadline: sim.Time(deadline)}, func(err error) {
			got = err
			at = r.eng.Now()
			count++
		})
	})
	r.eng.Run()
	if count != 1 {
		t.Fatalf("completed %d times, want exactly once", count)
	}
	if !errors.Is(got, sim.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", got)
	}
	if us := sim.Duration(at).Microseconds(); us < 49 || us > 51 {
		t.Errorf("detected at %.1f us, want the 50 us deadline", us)
	}
	if r.b.Stats().FramesDroppedDown == 0 {
		t.Error("crashed machine dropped no frames — the write never reached it")
	}
}

// TestCrashReleasesTxFramesOnce: B crashes while the responses of a
// 64 KiB READ are still queued in its TX pipeline. Each of them leaves the
// pipeline through the crashed port, which owns the frame it was handed
// and so releases it, once: released twice, one array sits in the frame
// pool twice and two later frames share it.
func TestCrashReleasesTxFramesOnce(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	r.eng.Schedule(0, func() {
		r.a.Post(1, Verb{Op: OpRead, LocalVA: uint64(r.bufA.Base()), RemoteVA: uint64(r.bufB.Base()), Len: 64 << 10,
			Deadline: sim.Time(200 * sim.Microsecond)}, func(error) {})
	})
	var txAtCrash uint64
	r.eng.ScheduleAt(sim.Time(20*sim.Microsecond), func() {
		txAtCrash = r.b.Stack().Stats().TxPackets
		r.b.Crash()
	})
	r.eng.Run()
	if r.b.Stack().Stats().TxPackets == txAtCrash {
		t.Fatal("no response was left in B's TX pipeline at the crash")
	}
	seen := make(map[*byte]bool)
	for i := 0; i < 256; i++ {
		b := packet.GetBuf()
		array := &b[:1][0]
		if seen[array] {
			t.Fatalf("GetBuf call %d returned an array an earlier call returned: a frame was released twice", i+1)
		}
		seen[array] = true
	}
}

// crashCycle runs the full end-to-end story: traffic, crash B mid-run,
// detect via deadline, restart, reconnect, resume. Returns the combined
// final stats for determinism comparison.
func crashCycle(t *testing.T, seed int64, crashAt sim.Duration) (NICStats, NICStats, roce.Stats, roce.Stats) {
	t.Helper()
	r := newRig(t, seed, Profile10G(), fabric.DirectCable10G())
	payload := make([]byte, 2048)
	r.eng.Rand().Read(payload)
	if err := r.a.Memory().WriteVirt(r.bufA.Base(), payload); err != nil {
		t.Fatal(err)
	}
	// Survivor state written to B's host memory before the crash: the
	// host did not lose power, so it must still be there afterwards.
	if err := r.b.Memory().WriteVirt(r.bufB.Base()+1<<20, []byte("survives")); err != nil {
		t.Fatal(err)
	}

	r.eng.ScheduleAt(sim.Time(crashAt), r.b.Crash)
	r.eng.ScheduleAt(sim.Time(crashAt+300*sim.Microsecond), r.b.Restart)

	reconnect := func() error { return Reconnect(r.a, 1, r.b, 2) }

	var failures, successes int
	r.eng.Go("client", func(p *sim.Process) {
		// Run until well past the restart so every crash time in the
		// table lands mid-workload (and at least a dozen ops regardless).
		horizon := sim.Time(crashAt + 600*sim.Microsecond)
		for i := 0; p.Now() < horizon || i < 12; i++ {
			err := r.a.Do(p, 1, Verb{Op: OpWrite, LocalVA: uint64(r.bufA.Base()), RemoteVA: uint64(r.bufB.Base()),
				Len: len(payload), Deadline: p.Now().Add(100 * sim.Microsecond)})
			if err == nil {
				successes++
				continue
			}
			if !errors.Is(err, sim.ErrDeadlineExceeded) && !errors.Is(err, roce.ErrQPError) {
				t.Errorf("op %d: unexpected error class: %v", i, err)
				return
			}
			failures++
			for attempt := 0; ; attempt++ {
				if attempt >= 32 {
					t.Errorf("op %d: recovery never converged", i)
					return
				}
				p.Sleep(100 * sim.Microsecond)
				if err := reconnect(); err == nil {
					break
				} else if !errors.Is(err, roce.ErrPeerCrashed) {
					t.Errorf("op %d: reconnect: %v", i, err)
					return
				}
			}
		}
	})
	r.eng.Run()

	if failures == 0 {
		t.Errorf("crash at %v never disturbed the client", crashAt)
	}
	if successes == 0 {
		t.Error("client never recovered")
	}
	got, _ := r.b.Memory().ReadVirt(r.bufB.Base(), len(payload))
	if !bytes.Equal(got, payload) {
		t.Error("post-recovery write did not land in B's memory")
	}
	sur, _ := r.b.Memory().ReadVirt(r.bufB.Base()+1<<20, 8)
	if string(sur) != "survives" {
		t.Error("host memory did not survive the NIC restart")
	}
	if r.b.Stats().Crashes != 1 || r.b.Stats().Restarts != 1 {
		t.Errorf("crash/restart counters = %d/%d", r.b.Stats().Crashes, r.b.Stats().Restarts)
	}
	return r.a.Stats(), r.b.Stats(), r.a.Stack().Stats(), r.b.Stack().Stats()
}

// TestCrashRestartRecovery is the table-driven end-to-end crash test: for
// several crash times the client must detect, reconnect and resume — and
// running the identical scenario twice must produce byte-identical
// statistics (seed determinism of the whole failure path).
func TestCrashRestartRecovery(t *testing.T) {
	crashTimes := []sim.Duration{
		20 * sim.Microsecond,  // mid first write
		150 * sim.Microsecond, // between ops
		333 * sim.Microsecond, // unaligned with everything
	}
	for _, at := range crashTimes {
		at := at
		t.Run(fmt.Sprintf("crash@%v", at), func(t *testing.T) {
			na1, nb1, sa1, sb1 := crashCycle(t, 7, at)
			na2, nb2, sa2, sb2 := crashCycle(t, 7, at)
			if na1 != na2 || nb1 != nb2 {
				t.Errorf("NIC stats diverged across identical runs:\nA: %+v\nvs %+v\nB: %+v\nvs %+v", na1, na2, nb1, nb2)
			}
			if sa1 != sa2 || sb1 != sb2 {
				t.Errorf("stack stats diverged across identical runs:\nA: %+v\nvs %+v\nB: %+v\nvs %+v", sa1, sa2, sb1, sb2)
			}
		})
	}
}

// Reconnect refuses while either end is down, with an error that wraps
// roce.ErrPeerCrashed and says which machine it is waiting for.
func TestReconnectNamesTheCrashedMachine(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	r.b.Crash()
	err := Reconnect(r.a, 1, r.b, 2)
	if !errors.Is(err, roce.ErrPeerCrashed) || !strings.Contains(err.Error(), r.b.Identity().IP.String()) {
		t.Errorf("Reconnect with B down = %v, want ErrPeerCrashed naming %v", err, r.b.Identity().IP)
	}
	r.b.Restart()
	if err := Reconnect(r.a, 1, r.b, 2); err != nil {
		t.Errorf("Reconnect with both up: %v", err)
	}
}
