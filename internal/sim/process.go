package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Process is a simulated thread of control. Application code (host
// software in the simulated machines) is most naturally written as
// straight-line code that sleeps and waits; Process provides that on top
// of the event loop.
//
// A process is a runtime coroutine (iter.Pull): the engine resumes it
// from an event callback and it runs on the engine's own thread until it
// parks or returns, so control passes by a direct coroutine switch and
// never through the Go scheduler. Consequences callers can rely on:
//
//   - Exactly one of the engine and its processes runs at any time
//     (Engine.running names the process, nil for the engine), so
//     simulations stay deterministic.
//   - Whoever runs the engine resumes its processes. Under a ShardGroup
//     that is a different worker goroutine from one window to the next,
//     never two at once: an engine is run by one worker per window, and
//     the window barrier orders one window's worker before the next's.
//   - A panic inside a process unwinds through Engine.Run on the
//     caller's goroutine, as a string naming the process and carrying the
//     process's own stack; runtime.Goexit (t.Fatal) in a process ends the
//     goroutine that called Run.
//   - A process still parked when the simulation ends stays parked; its
//     coroutine is never released.
type Process struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool) // resume the coroutine until it parks or returns
	yield func(struct{}) bool     // park: switch back to whoever called next
	// stepFn and wakeFn are the method values step and wake, bound once so
	// that scheduling them allocates nothing per switch.
	stepFn func()
	wakeFn func()
	waking bool // a step event is queued and has not run yet
	done   bool
	// alarm is the one wake event of a ParkUntil; armable is set while the
	// process is parked there and that wake has not fired.
	alarm   Event
	armable bool
	ringFn  func()
}

// Go starts fn as a new simulated process at the current time.
func (e *Engine) Go(name string, fn func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.stepFn, p.wakeFn, p.ringFn = p.step, p.wake, p.ring
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("sim: process %q panicked: %v\n\n%s", name, r, debug.Stack()))
			}
		}()
		p.yield = yield
		fn(p)
	})
	p.wake()
	return p
}

// step is the event that runs p until it parks or returns.
func (p *Process) step() {
	e := p.eng
	prev := e.running
	e.running = p
	p.waking = false
	_, parked := p.next()
	p.done = !parked
	e.running = prev
}

// park yields control back to the engine; the process stays blocked until
// some event calls wake.
func (p *Process) park() {
	if p.eng.running != p {
		panic(fmt.Sprintf("sim: process %q blocked from outside its own run", p.name))
	}
	p.yield(struct{}{})
}

// wake schedules the process to continue at the current simulated time.
// Every blocking primitive registers wakeFn in exactly one place and
// removes it when it fires, so a second wake before the process has run
// is a bug in the primitive: it would resume the process at some later,
// unrelated wait.
func (p *Process) wake() {
	if p.waking {
		panic(fmt.Sprintf("sim: process %q woken twice", p.name))
	}
	p.waking = true
	p.eng.Schedule(0, p.stepFn)
}

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Name returns the process name (for traces).
func (p *Process) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Done reports whether the process function has returned.
func (p *Process) Done() bool { return p.done }

// Sleep blocks the process for d of simulated time.
func (p *Process) Sleep(d Duration) {
	p.eng.Schedule(d, p.wakeFn)
	p.park()
}

// ParkUntil blocks p on a single wake event: at deadline, or earlier if
// WakeBy moves it. A zero deadline leaves the wake unarmed until WakeBy
// arms it; a process nothing arms stays parked and, holding no event, does
// not keep the simulation alive.
func (p *Process) ParkUntil(deadline Time) {
	p.armable = true
	if deadline != 0 {
		p.alarm = p.eng.ScheduleAt(deadline, p.ringFn)
	}
	p.park()
}

// WakeBy makes a process parked in ParkUntil resume no later than t: it
// arms the wake at t, cancelling a later one. It does nothing when the
// wake is already due by t, when the process is not in ParkUntil, or once
// the wake has fired: a call between that wake and the resume would
// otherwise queue a second wake, which would fire in a later, unrelated
// wait.
func (p *Process) WakeBy(t Time) {
	if !p.armable || (p.alarm.Pending() && p.alarm.At() <= t) {
		return
	}
	p.alarm.Cancel()
	p.alarm = p.eng.ScheduleAt(t, p.ringFn)
}

// ring is the ParkUntil wake event: it disarms the alarm, then wakes p.
func (p *Process) ring() {
	p.armable = false
	p.alarm = Event{}
	p.wake()
}

// Signal is a broadcast wake-up point for processes.
type Signal struct {
	waiters []func()
}

// Wait blocks p until the next Broadcast.
func (s *Signal) Wait(p *Process) {
	s.waiters = append(s.waiters, p.wakeFn)
	p.park()
}

// Broadcast wakes every currently waiting process.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		w()
	}
}

// Waiters reports how many processes are blocked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Mailbox is an unbounded FIFO queue with blocking receive, for passing
// messages between simulated processes and event-driven components.
type Mailbox[T any] struct {
	items   FIFO[T]
	waiters FIFO[func()]
}

// Send enqueues v and wakes one waiting receiver, if any. Send never
// blocks and may be called from event callbacks.
func (m *Mailbox[T]) Send(v T) {
	m.items.Push(v)
	if m.waiters.Len() > 0 {
		m.waiters.Pop()()
	}
}

// Recv blocks p until an item is available and returns it.
func (m *Mailbox[T]) Recv(p *Process) T {
	for m.items.Len() == 0 {
		m.waiters.Push(p.wakeFn)
		p.park()
	}
	return m.items.Pop()
}

// TryRecv returns the next item without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	if m.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return m.items.Pop(), true
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return m.items.Len() }

// Completion is a one-shot future: an event-driven component completes it
// and a process can wait for it.
type Completion[T any] struct {
	done bool
	val  T
	err  error
	// first is the first registered callback and fires the rest, in
	// registration order. The usual completion has one waiter, which the
	// inline slot holds without allocating a list.
	first  func()
	fires  []func()
	String string
}

// Complete resolves the completion with a value.
func (c *Completion[T]) Complete(v T) { c.resolve(v, nil) }

// Fail resolves the completion with an error.
func (c *Completion[T]) Fail(err error) {
	var zero T
	c.resolve(zero, err)
}

func (c *Completion[T]) resolve(v T, err error) {
	if c.done {
		panic(fmt.Sprintf("sim: completion resolved twice (%v)", c.String))
	}
	c.done = true
	c.val = v
	c.err = err
	first, fires := c.first, c.fires
	c.first, c.fires = nil, nil
	if first != nil {
		first()
	}
	for _, f := range fires {
		f()
	}
}

// onResolve registers f to run when the completion resolves.
func (c *Completion[T]) onResolve(f func()) {
	if c.first == nil {
		c.first = f
		return
	}
	c.fires = append(c.fires, f)
}

// IsDone reports whether the completion has resolved.
func (c *Completion[T]) IsDone() bool { return c.done }

// Wait blocks p until the completion resolves and returns its result.
func (c *Completion[T]) Wait(p *Process) (T, error) {
	if !c.done {
		c.onResolve(p.wakeFn)
		p.park()
	}
	return c.val, c.err
}

// OnDone registers fn to run when the completion resolves (immediately if
// it already has).
func (c *Completion[T]) OnDone(fn func(T, error)) {
	if c.done {
		fn(c.val, c.err)
		return
	}
	c.onResolve(func() { fn(c.val, c.err) })
}
