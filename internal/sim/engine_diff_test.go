package sim

// Differential and structural tests for the specialized event queue:
// the two 4-ary heaps split by booking distance, with cancellation that
// takes an event out at once and event recycling, and the backlogs that
// keep only their head in them, must behave exactly like a textbook
// container/heap DES ordered by (timestamp, sequence) — including FIFO
// tie-breaking across the two heaps, daemons, and cancellation of
// already-fired events.

import (
	stdheap "container/heap"
	"fmt"
	"math/rand"
	"testing"

	"strom/internal/raceflag"
)

// diffSched is the scheduling surface the differential workload runs
// against: once backed by the real Engine, once by the reference.
type diffSched interface {
	schedule(at Time, id int, daemon bool)
	push(q int, at Time, id int) // book id on backlog q; at never decreases per q
	cancel(id int)
	now() Time
	check() // the engine's structural check; a no-op on the reference
	run(onFire func(id int))
}

// engineSched drives the real Engine. handles holds the plain events
// still queued, so the heaps must hold exactly those and one head per
// non-empty backlog.
type engineSched struct {
	t        testing.TB
	e        *Engine
	handles  map[int]Event
	backlogs [diffBacklogs]*Backlog[int]
	onFire   func(id int)
}

func newEngineSched(t testing.TB) *engineSched {
	s := &engineSched{t: t, e: NewEngine(1), handles: make(map[int]Event)}
	for q := range s.backlogs {
		s.backlogs[q] = NewBacklog(s.e, func(id int) { s.onFire(id) })
	}
	return s
}

func (s *engineSched) schedule(at Time, id int, daemon bool) {
	fn := func() {
		delete(s.handles, id)
		s.onFire(id)
	}
	if daemon {
		s.handles[id] = s.e.ScheduleDaemonAt(at, fn)
	} else {
		s.handles[id] = s.e.ScheduleAt(at, fn)
	}
}
func (s *engineSched) push(q int, at Time, id int) { s.backlogs[q].PushAt(at, id) }
func (s *engineSched) cancel(id int) {
	s.handles[id].Cancel()
	delete(s.handles, id)
}
func (s *engineSched) now() Time { return s.e.Now() }
func (s *engineSched) check() {
	live := len(s.handles)
	for _, b := range s.backlogs {
		if b.Len() > 0 {
			live++
		}
	}
	if err := checkHeaps(s.e, live); err != nil {
		s.t.Fatalf("at %v: %v", s.e.Now(), err)
	}
}
func (s *engineSched) run(onFire func(id int)) {
	s.onFire = onFire
	s.e.Run()
}

// checkHeaps checks e's two heaps: every event sits at its idx in the
// heap its far flag names, no event precedes its parent, the daemon
// count is the daemons queued, and the heaps hold exactly the live
// events — a cancelled or fired one is gone, not left inert.
func checkHeaps(e *Engine, live int) error {
	daemons := 0
	for _, h := range []*eventHeap{&e.near, &e.far} {
		far := h == &e.far
		for i, ev := range *h {
			switch {
			case int(ev.idx) != i:
				return fmt.Errorf("far=%v slot %d holds an event whose idx is %d", far, i, ev.idx)
			case ev.far != far:
				return fmt.Errorf("far=%v slot %d holds an event of the other heap", far, i)
			case ev.fn == nil:
				return fmt.Errorf("far=%v slot %d holds a recycled event", far, i)
			case i > 0 && eventLess(ev, (*h)[(i-1)>>2]):
				return fmt.Errorf("far=%v slot %d precedes its parent", far, i)
			}
			if ev.daemon {
				daemons++
			}
		}
	}
	if daemons != e.ndaemon {
		return fmt.Errorf("%d daemons queued, ndaemon %d", daemons, e.ndaemon)
	}
	if n := queued(e); n != live {
		return fmt.Errorf("heaps hold %d events, %d are live", n, live)
	}
	return nil
}

// queued reports how many events e's heaps hold.
func queued(e *Engine) int { return len(e.near) + len(e.far) }

// refSched is the reference implementation: container/heap ordered by
// (at, seq), cancellation via a map, no recycling, and a count of the
// queued foreground events that ends the run as Engine.Run's does.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type refSched struct {
	heap   refHeap
	seq    uint64
	queued map[int]bool // id → daemon, for events neither fired nor cancelled
	fg     int          // queued foreground events
	t      Time
}

func newRefSched() *refSched { return &refSched{queued: make(map[int]bool)} }

func (s *refSched) schedule(at Time, id int, daemon bool) {
	if at < s.t {
		at = s.t
	}
	stdheap.Push(&s.heap, refEvent{at: at, seq: s.seq, id: id})
	s.seq++
	s.queued[id] = daemon
	if !daemon {
		s.fg++
	}
}

// push is a plain event: the reference has no backlogs.
func (s *refSched) push(_ int, at Time, id int) { s.schedule(at, id, false) }
func (s *refSched) cancel(id int) {
	if daemon, ok := s.queued[id]; ok {
		s.drop(id, daemon)
	}
}
func (s *refSched) drop(id int, daemon bool) {
	delete(s.queued, id)
	if !daemon {
		s.fg--
	}
}
func (s *refSched) now() Time { return s.t }
func (s *refSched) check()    {}
func (s *refSched) run(onFire func(id int)) {
	for s.fg > 0 {
		ev := stdheap.Pop(&s.heap).(refEvent)
		// Cancelled events do not advance the clock (seed semantics).
		daemon, ok := s.queued[ev.id]
		if !ok {
			continue
		}
		s.drop(ev.id, daemon)
		s.t = ev.at
		onFire(ev.id)
	}
}

// diffBacklogs is the number of backlogs runWorkload books items on.
const diffBacklogs = 3

// runWorkload executes an identical randomized DES workload on s:
// a burst of initial events with heavy timestamp ties, a pre-run
// cancellation wave, and a firing rule that schedules children and
// cancels arbitrary ids (including already-fired ones). Beside the
// events, items are booked on diffBacklogs backlogs at non-decreasing
// times that tie with the events and with each other. Some events are
// booked just below, at and just above farAfter ahead, some are 600 µs
// timers (daemons among them) that are mostly cancelled, in their heap's
// head slot or deeper, and some tie a near and a far event at one
// instant, booked in either order. The rng is consumed in firing order,
// so two schedulers produce the same script iff they fire events in the
// same order — which is what's under test. s.check runs after every
// step.
func runWorkload(s diffSched, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	const initial = 300
	const maxEvents = 2500
	nextID := 0
	var ids []int // events, the cancellable ids
	var far []int // events booked farAfter or more ahead, oldest first
	var last [diffBacklogs]Time
	book := func(q int, at Time) {
		last[q] = max(last[q], at)
		s.push(q, last[q], nextID)
		nextID++
	}
	event := func(at Time, daemon bool) {
		s.schedule(at, nextID, daemon)
		ids = append(ids, nextID)
		if at >= s.now()+Time(farAfter) {
			far = append(far, nextID)
		}
		nextID++
	}
	// plain books an event: mostly under spread ns ahead, one in eight
	// 1 ns below, at or 1 ns above farAfter ahead, one in eight a 600 µs
	// timer (a daemon one time in four).
	plain := func(spread int) {
		switch rng.Intn(8) {
		case 0:
			event(s.now()+Time(farAfter)+Time(rng.Intn(3)-1)*Time(Nanosecond), false)
		case 1:
			event(s.now()+Time(600*Microsecond)+Time(rng.Intn(3))*Time(Nanosecond), rng.Intn(4) == 0)
		default:
			event(s.now()+Time(rng.Intn(spread))*Time(Nanosecond), false)
		}
	}
	// tie books a backlog item and a plain event for one instant beyond
	// farAfter, in either order. The item waits behind one due in 5 ns,
	// so it is armed in the near heap when that one fires, while the
	// plain event goes to the far heap.
	tie := func() {
		q := rng.Intn(diffBacklogs)
		book(q, s.now()+Time(5*Nanosecond))
		at := s.now() + Time(farAfter) + Time(Nanosecond)
		farFirst := rng.Intn(2) == 0
		if farFirst {
			event(at, false)
		}
		book(q, at)
		if !farFirst {
			event(at, false)
		}
	}
	for i := 0; i < initial; i++ {
		if rng.Intn(3) == 0 {
			q := rng.Intn(diffBacklogs)
			book(q, last[q]+Time(rng.Intn(4))*Time(Nanosecond))
		} else {
			plain(40)
		}
		s.check()
	}
	for _, id := range ids {
		if rng.Intn(4) == 0 {
			s.cancel(id)
		}
	}
	s.check()
	var fired []int
	s.run(func(id int) {
		fired = append(fired, id)
		for n := rng.Intn(3); n > 0 && nextID < maxEvents; n-- {
			switch rng.Intn(8) {
			case 0, 1:
				q := rng.Intn(diffBacklogs)
				book(q, max(last[q], s.now())+Time(rng.Intn(4))*Time(Nanosecond))
			case 2:
				tie()
			default:
				plain(15)
			}
		}
		if rng.Intn(4) == 0 {
			// May target a fired event: must be a no-op on both sides.
			s.cancel(ids[rng.Intn(len(ids))])
		}
		if rng.Intn(8) == 0 && len(far) > 0 {
			// Often the far heap's head: the far events are booked
			// about in time order, timers after the rest.
			s.cancel(far[0])
			far = far[1:]
		}
		s.check()
	})
	s.check()
	return fired
}

func TestEngineMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		matchReference(t, seed)
	}
}

// FuzzBacklogMatchesReference runs the differential workload under
// seeds the fuzzer picks.
func FuzzBacklogMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(-3))
	f.Fuzz(matchReference)
}

// matchReference runs the workload at seed on the engine and on the
// reference and requires the same firing order and final clock.
func matchReference(t *testing.T, seed int64) {
	eng := newEngineSched(t)
	ref := newRefSched()
	got := runWorkload(eng, seed)
	want := runWorkload(ref, seed)
	if len(got) != len(want) {
		t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: firing order diverges at %d: engine %d, reference %d",
				seed, i, got[i], want[i])
		}
	}
	if eng.e.Now() != ref.t {
		t.Fatalf("seed %d: final clock %v vs reference %v", seed, eng.e.Now(), ref.t)
	}
}

// TestEnginePendingMatchesScan pins the O(1) Pending counter to the
// ground truth: the foreground events found by scanning both heaps.
func TestEnginePendingMatchesScan(t *testing.T) {
	e := NewEngine(1)
	scan := func() int {
		n := 0
		for _, h := range []eventHeap{e.near, e.far} {
			for _, ev := range h {
				if !ev.daemon {
					n++
				}
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(9))
	var handles []Event
	for step := 0; step < 3000; step++ {
		if d := Duration(rng.Intn(20000)) * Nanosecond; rng.Intn(4) == 0 {
			handles = append(handles, e.ScheduleDaemon(d, func() {}))
		} else if rng.Intn(3) < 2 {
			handles = append(handles, e.Schedule(d, func() {}))
		} else if len(handles) > 0 {
			handles[rng.Intn(len(handles))].Cancel()
		}
		if got, want := e.Pending(), scan(); got != want {
			t.Fatalf("step %d: Pending() = %d, heap scan = %d", step, got, want)
		}
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending() after Run = %d", e.Pending())
	}
}

// TestEngineMassCancelBounded is the regression test for the
// cancelled-event leak: cancelling almost everything must shrink the
// heaps to the live events, not leave dead entries behind until their
// timestamps are reached.
func TestEngineMassCancelBounded(t *testing.T) {
	e := NewEngine(1)
	const total = 100000
	evs := make([]Event, 0, total)
	for i := 0; i < total; i++ {
		evs = append(evs, e.Schedule(Duration(i)*Microsecond, func() {}))
	}
	live := 0
	for i, ev := range evs {
		if i%100 == 0 {
			live++
			continue
		}
		ev.Cancel()
	}
	if got := e.Pending(); got != live {
		t.Fatalf("Pending() = %d, want %d", got, live)
	}
	if n := queued(e); n != live {
		t.Fatalf("heaps hold %d entries for %d live events: cancellations leak", n, live)
	}
	e.Run()
	if int(e.Fired()) != live {
		t.Errorf("fired %d events, want %d", e.Fired(), live)
	}
}

// TestEngineSteadyStateAllocs verifies the free list: a schedule/run
// cycle at steady state must not allocate.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i)*Nanosecond, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(Nanosecond, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule/run allocates %.1f times", allocs)
	}
}

// TestAllocsScheduleCancel: on a warm engine, booking an event and
// cancelling it allocate nothing, in either heap.
func TestAllocsScheduleCancel(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	nop := func() {}
	for _, d := range []Duration{Nanosecond, 600 * Microsecond} {
		e := NewEngine(1)
		ev := e.Schedule(d, nop)
		if ev.e.far != (d > farAfter) {
			t.Fatalf("an event %v ahead went to far=%v", d, ev.e.far)
		}
		ev.Cancel()
		allocs := testing.AllocsPerRun(200, func() { e.Schedule(d, nop).Cancel() })
		if allocs != 0 {
			t.Errorf("booking and cancelling an event %v ahead allocates %.1f times", d, allocs)
		}
	}
}

// TestEngineStaleHandleSafety: a handle kept after its event fired (or
// was cancelled) must go inert, even once the underlying struct is
// recycled for an unrelated event. This is exactly the ARP resolver's
// pattern of cancelling a timer that may have already fired.
func TestEngineStaleHandleSafety(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(Nanosecond, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if ev.Pending() {
		t.Error("fired event still pending")
	}
	ran := false
	ev2 := e.Schedule(Nanosecond, func() { ran = true })
	if ev.e != ev2.e {
		t.Fatal("free list did not recycle the event struct; test is vacuous")
	}
	ev.Cancel() // stale: must not cancel ev2
	if !ev2.Pending() {
		t.Fatal("stale Cancel() hit a recycled event")
	}
	ev.Cancel()
	e.Run()
	if !ran {
		t.Error("recycled event did not fire")
	}
	if ev2.Pending() {
		t.Error("fired recycled event still pending")
	}
}
