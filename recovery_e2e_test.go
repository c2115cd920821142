package strom_test

import (
	"bytes"
	"errors"
	"testing"

	"strom"
)

// TestPublicCrashRecoveryEndToEnd is the full §-robustness story through
// the public API alone: the server machine crashes and restarts while the
// client issues deadline-bounded writes, detects the death, reconnects
// under backoff and resumes — with every error classified by the
// documented taxonomy.
func TestPublicCrashRecoveryEndToEnd(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 3, strom.Profile10G(), strom.Cable10G())
	bufA, err := a.AllocBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	bufB, err := b.AllocBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("deadline-bounded payload")
	if err := a.Memory().WriteVirt(bufA.Base(), payload); err != nil {
		t.Fatal(err)
	}

	cl.Engine().ScheduleAt(strom.Time(100*strom.Microsecond), func() { b.Crash() })
	cl.Engine().ScheduleAt(strom.Time(500*strom.Microsecond), func() { b.Restart() })

	var successes, failures, reconnects int
	cl.Go("client", func(p *strom.Process) {
		bo := strom.Backoff{Base: 50 * strom.Microsecond, Max: 400 * strom.Microsecond, Factor: 2, Jitter: 0.5}
		// Keep issuing ops until well past the restart so the crash
		// window always lands mid-workload.
		horizon := strom.Time(800 * strom.Microsecond)
		for i := 0; p.Now() < horizon || i < 14; i++ {
			err := qp.Do(p, strom.Verb{Op: strom.OpWrite, LocalVA: uint64(bufA.Base()), RemoteVA: uint64(bufB.Base()),
				Len: len(payload), Deadline: p.Now().Add(150 * strom.Microsecond)})
			if err == nil {
				successes++
				continue
			}
			if !errors.Is(err, strom.ErrDeadlineExceeded) && !errors.Is(err, strom.ErrQPError) {
				t.Errorf("op %d: error outside the documented taxonomy: %v", i, err)
				return
			}
			failures++
			if rerr := strom.Retry(p, bo, 16, func() error {
				if err := qp.Reconnect(); err != nil {
					if !errors.Is(err, strom.ErrPeerCrashed) {
						t.Errorf("op %d: reconnect: %v", i, err)
					}
					return err
				}
				return nil
			}); rerr != nil {
				t.Errorf("op %d: recovery never converged: %v", i, rerr)
				return
			}
			reconnects++
		}
	})
	cl.Run()

	if failures == 0 || successes == 0 || reconnects == 0 {
		t.Fatalf("successes=%d failures=%d reconnects=%d — the crash was never felt or never survived",
			successes, failures, reconnects)
	}
	if qp.StateA() != "RTS" || qp.StateB() != "RTS" {
		t.Errorf("final states A=%s B=%s, want RTS/RTS", qp.StateA(), qp.StateB())
	}
	got, _ := b.Memory().ReadVirt(bufB.Base(), len(payload))
	if !bytes.Equal(got, payload) {
		t.Error("post-recovery write did not land")
	}
}

// TestPublicCrashTaxonomy: posts on a crashed machine and reconnects
// against a dead peer fail with the documented sentinels.
func TestPublicCrashTaxonomy(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 1, strom.Profile10G(), strom.Cable10G())
	bufA, _ := a.AllocBuffer(1 << 20)
	bufB, _ := b.AllocBuffer(1 << 20)
	a.Crash()
	if !a.Crashed() {
		t.Fatal("not crashed")
	}
	var got error
	cl.Go("app", func(p *strom.Process) {
		got = qp.WriteSync(p, uint64(bufA.Base()), uint64(bufB.Base()), 64)
	})
	cl.Run()
	if !errors.Is(got, strom.ErrMachineDown) || !errors.Is(got, strom.ErrQPError) {
		t.Errorf("post on crashed machine: %v, want ErrMachineDown (an ErrQPError)", got)
	}
	if err := qp.Reconnect(); !errors.Is(err, strom.ErrPeerCrashed) {
		t.Errorf("reconnect with dead end: %v, want ErrPeerCrashed", err)
	}
	a.Restart()
	if qp.StateA() != "RESET" {
		t.Errorf("state after restart = %s, want RESET", qp.StateA())
	}
	if err := qp.Reconnect(); err != nil {
		t.Fatalf("reconnect after restart: %v", err)
	}
	var ok bool
	cl.Go("app2", func(p *strom.Process) {
		ok = qp.WriteSync(p, uint64(bufA.Base()), uint64(bufB.Base()), 64) == nil
	})
	cl.Run()
	if !ok {
		t.Error("write after restart+reconnect failed")
	}
}

// TestPublicPollNonZeroDeadline: the bounded poll gives up with
// ErrDeadlineExceeded when the flag byte never flips.
func TestPublicPollNonZeroDeadline(t *testing.T) {
	cl, a, _, _ := twoMachines(t, 1, strom.Profile10G(), strom.Cable10G())
	buf, _ := a.AllocBuffer(1 << 20)
	var got error
	var at strom.Time
	cl.Go("poller", func(p *strom.Process) {
		got = a.Memory().PollNonZeroDeadline(p, buf.Base(), 30*strom.Microsecond)
		at = p.Now()
	})
	cl.Run()
	if !errors.Is(got, strom.ErrPollTimeout) || !errors.Is(got, strom.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrPollTimeout wrapping ErrDeadlineExceeded", got)
	}
	if us := strom.Duration(at).Microseconds(); us < 30 || us > 40 {
		t.Errorf("gave up at %.1f us, want just past the 30 us window", us)
	}
}

// TestPublicRetryBackoff: Retry sleeps between attempts with
// seed-deterministic jitter and stops on first success.
func TestPublicRetryBackoff(t *testing.T) {
	elapsed := func(seed int64) (strom.Duration, int) {
		cl := strom.NewCluster(seed)
		var d strom.Duration
		calls := 0
		cl.Go("retry", func(p *strom.Process) {
			start := p.Now()
			err := strom.Retry(p, strom.Backoff{Base: 10 * strom.Microsecond, Max: 80 * strom.Microsecond, Factor: 2, Jitter: 0.5}, 8,
				func() error {
					calls++
					if calls < 4 {
						return errors.New("not yet")
					}
					return nil
				})
			if err != nil {
				t.Errorf("retry: %v", err)
			}
			d = p.Now().Sub(start)
		})
		cl.Run()
		return d, calls
	}
	d1, calls := elapsed(5)
	if calls != 4 {
		t.Errorf("calls = %d, want stop on first success", calls)
	}
	// Three sleeps of >= half-base each (jitter scales in [0.5, 1]).
	if d1 < 3*5*strom.Microsecond {
		t.Errorf("elapsed %v, want at least the un-jittered minimum", d1)
	}
	d2, _ := elapsed(5)
	if d1 != d2 {
		t.Errorf("same seed gave different schedules: %v vs %v", d1, d2)
	}
	d3, _ := elapsed(6)
	if d1 == d3 {
		t.Error("different seeds gave identical jitter (suspicious)")
	}
}
