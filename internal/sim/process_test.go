package sim

import (
	"strings"
	"testing"

	"strom/internal/raceflag"
)

func TestProcessSleep(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Go("p", func(p *Process) {
		marks = append(marks, p.Now())
		p.Sleep(10 * Nanosecond)
		marks = append(marks, p.Now())
		p.Sleep(5 * Nanosecond)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, Time(10 * Nanosecond), Time(15 * Nanosecond)}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("a", func(p *Process) {
		order = append(order, "a0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "a1")
	})
	e.Go("b", func(p *Process) {
		order = append(order, "b0")
		p.Sleep(5 * Nanosecond)
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestProcessDone(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("p", func(p *Process) { p.Sleep(Nanosecond) })
	if p.Done() {
		t.Error("done before run")
	}
	e.Run()
	if !p.Done() {
		t.Error("not done after run")
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	var sig Signal
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Process) {
			sig.Wait(p)
			woke++
		})
	}
	e.Schedule(10*Nanosecond, func() {
		if sig.Waiters() != 3 {
			t.Errorf("waiters = %d", sig.Waiters())
		}
		sig.Broadcast()
	})
	e.Run()
	if woke != 3 {
		t.Errorf("woke = %d", woke)
	}
}

func TestMailboxOrder(t *testing.T) {
	e := NewEngine(1)
	var mb Mailbox[int]
	var got []int
	e.Go("recv", func(p *Process) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(Duration(i+1)*Nanosecond, func() { mb.Send(i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestMailboxSendBeforeRecv(t *testing.T) {
	e := NewEngine(1)
	var mb Mailbox[string]
	mb.Send("x")
	if mb.Len() != 1 {
		t.Errorf("len = %d", mb.Len())
	}
	var got string
	e.Go("r", func(p *Process) { got = mb.Recv(p) })
	e.Run()
	if got != "x" {
		t.Errorf("got = %q", got)
	}
	if _, ok := mb.TryRecv(); ok {
		t.Error("TryRecv on empty mailbox succeeded")
	}
}

func TestMailboxTwoReceivers(t *testing.T) {
	e := NewEngine(1)
	var mb Mailbox[int]
	sum := 0
	for i := 0; i < 2; i++ {
		e.Go("r", func(p *Process) { sum += mb.Recv(p) })
	}
	e.Schedule(Nanosecond, func() { mb.Send(1) })
	e.Schedule(2*Nanosecond, func() { mb.Send(2) })
	e.Run()
	if sum != 3 {
		t.Errorf("sum = %d", sum)
	}
}

func TestCompletionWaitAfterResolve(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	c.Complete(7)
	var got int
	e.Go("p", func(p *Process) { got, _ = c.Wait(p) })
	e.Run()
	if got != 7 {
		t.Errorf("got = %d", got)
	}
}

func TestCompletionWaitBeforeResolve(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	var got int
	var at Time
	e.Go("p", func(p *Process) {
		got, _ = c.Wait(p)
		at = p.Now()
	})
	e.Schedule(42*Nanosecond, func() { c.Complete(9) })
	e.Run()
	if got != 9 || at != Time(42*Nanosecond) {
		t.Errorf("got = %d at %v", got, at)
	}
}

func TestCompletionFail(t *testing.T) {
	e := NewEngine(1)
	c := &Completion[int]{}
	var err error
	e.Go("p", func(p *Process) { _, err = c.Wait(p) })
	e.Schedule(Nanosecond, func() { c.Fail(errTest) })
	e.Run()
	if err != errTest {
		t.Errorf("err = %v", err)
	}
}

func TestCompletionDoubleResolvePanics(t *testing.T) {
	c := &Completion[int]{}
	c.Complete(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Complete(2)
}

func TestCompletionOnDone(t *testing.T) {
	c := &Completion[int]{}
	var got int
	c.OnDone(func(v int, err error) { got = v })
	c.Complete(5)
	if got != 5 {
		t.Errorf("got = %d", got)
	}
	// After resolution OnDone fires immediately.
	got = 0
	c.OnDone(func(v int, err error) { got = v })
	if got != 5 {
		t.Errorf("got = %d", got)
	}
}

// A panic inside a process unwinds through Engine.Run on the caller's
// goroutine, where it can be recovered, and says which process it was.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	e.Go("bystander", func(p *Process) { p.Sleep(Microsecond) })
	e.Go("worker-7", func(p *Process) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`process "worker-7"`, "boom", "TestProcessPanicSurfacesFromRun"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message lacks %q:\n%s", want, msg)
			}
		}
	}()
	e.Run()
	t.Fatal("Run returned past a panicking process")
}

// A primitive that wakes a process twice would resume it at whatever it
// blocks on next; the process refuses the second wake.
func TestProcessDoubleWakePanics(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("p", func(p *Process) { p.Sleep(Microsecond) })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "woken twice") {
			t.Errorf("recovered %q, want a double-wake panic", msg)
		}
	}()
	p.wake()
	t.Fatal("second wake accepted")
}

// ParkUntil's wake moves earlier and never later, and a parked process
// nothing arms holds no event.
func TestParkUntilWakeBy(t *testing.T) {
	e := NewEngine(1)
	var woke []Time
	p := e.Go("p", func(p *Process) {
		p.ParkUntil(Time(50 * Nanosecond))
		woke = append(woke, p.Now())
		p.ParkUntil(0)
		woke = append(woke, p.Now())
		p.ParkUntil(0)
		woke = append(woke, p.Now())
	})
	e.Schedule(10*Nanosecond, func() {
		p.WakeBy(Time(30 * Nanosecond))
		p.WakeBy(Time(40 * Nanosecond)) // later than the armed wake: ignored
		p.WakeBy(Time(20 * Nanosecond))
	})
	e.Schedule(60*Nanosecond, func() { p.WakeBy(Time(70 * Nanosecond)) })
	if end := e.Run(); end != Time(70*Nanosecond) {
		t.Errorf("Run ended at %v, want 70ns: the cancelled wakes kept it alive", end)
	}
	want := []Time{Time(20 * Nanosecond), Time(70 * Nanosecond)}
	if len(woke) != len(want) || woke[0] != want[0] || woke[1] != want[1] {
		t.Errorf("woke at %v, want %v and then parked for good", woke, want)
	}
	if p.Done() {
		t.Error("a process nothing woke finished")
	}
}

// A WakeBy that lands after the wake has fired but before the process has
// run must not queue a second wake: that one would fire after the resume
// and cut short whatever the process waits on next.
func TestWakeByAfterFireWakesOnce(t *testing.T) {
	e := NewEngine(1)
	var woke, slept Time
	p := e.Go("p", func(p *Process) {
		p.ParkUntil(0)
		woke = p.Now()
		p.Sleep(100 * Nanosecond)
		slept = p.Now()
	})
	at := Time(10 * Nanosecond)
	e.Schedule(5*Nanosecond, func() {
		p.WakeBy(at)
		// Queued after the wake, so it runs at 10 ns between the wake
		// event and the step that resumes p.
		e.ScheduleAt(at, func() { p.WakeBy(at) })
	})
	before := e.Fired()
	e.Run()
	if woke != at || slept != at.Add(100*Nanosecond) {
		t.Errorf("woke at %v and slept until %v, want %v and %v", woke, slept, at, at.Add(100*Nanosecond))
	}
	// Start, two scheduled calls, wake+step, sleep's wake+step.
	if fired := e.Fired() - before; fired != 7 {
		t.Errorf("%d events fired, want 7", fired)
	}
}

// One park/wake costs the two events it schedules — recycled structs —
// and nothing else: no closure per Sleep, no waiter list per Wait.
func TestProcessSwitchAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	t.Run("Sleep", func(t *testing.T) {
		e := NewEngine(1)
		stop := false
		e.Go("sleeper", func(p *Process) {
			for !stop {
				p.Sleep(Nanosecond)
			}
		})
		allocs := testing.AllocsPerRun(1000, func() { e.RunUntil(e.Now().Add(Nanosecond)) })
		stop = true
		e.Run()
		if allocs != 0 {
			t.Errorf("Process.Sleep: %v allocs per switch, want 0", allocs)
		}
	})
	t.Run("CompletionWait", func(t *testing.T) {
		const runs = 1000
		e := NewEngine(1)
		comps := make([]Completion[int], runs+1) // AllocsPerRun warms up once
		e.Go("waiter", func(p *Process) {
			for i := range comps {
				if v, _ := comps[i].Wait(p); v != i {
					t.Errorf("completion %d resolved with %d", i, v)
				}
			}
		})
		e.Run() // parked on comps[0]
		next := 0
		complete := func() {
			comps[next].Complete(next)
			next++
		}
		allocs := testing.AllocsPerRun(runs, func() {
			e.Schedule(Nanosecond, complete)
			e.Run()
		})
		if allocs != 0 {
			t.Errorf("Completion.Wait: %v allocs per switch, want 0", allocs)
		}
		if next != len(comps) {
			t.Fatalf("completed %d of %d", next, len(comps))
		}
	})
}

type testError string

func (e testError) Error() string { return string(e) }

var errTest = testError("test error")

func TestSerializerBackToBack(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	var ends []Time
	e.Schedule(0, func() {
		ends = append(ends, s.Reserve(10*Nanosecond))
		ends = append(ends, s.Reserve(10*Nanosecond))
	})
	e.Run()
	if ends[0] != Time(10*Nanosecond) || ends[1] != Time(20*Nanosecond) {
		t.Errorf("ends = %v", ends)
	}
	if s.BusyTime() != 20*Nanosecond {
		t.Errorf("busy = %v", s.BusyTime())
	}
}

func TestSerializerIdleGap(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	e.Schedule(0, func() { s.Reserve(5 * Nanosecond) })
	e.Schedule(100*Nanosecond, func() {
		if end := s.Reserve(5 * Nanosecond); end != Time(105*Nanosecond) {
			t.Errorf("end = %v", end)
		}
	})
	e.Run()
}

func TestSerializerReserveFrom(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	end := s.ReserveFrom(Time(50*Nanosecond), 10*Nanosecond)
	if end != Time(60*Nanosecond) {
		t.Errorf("end = %v", end)
	}
	// Next reservation from an earlier time queues behind.
	end = s.ReserveFrom(Time(10*Nanosecond), 10*Nanosecond)
	if end != Time(70*Nanosecond) {
		t.Errorf("end = %v", end)
	}
}
