package sim

// Differential and structural tests for the specialized event queue:
// the 4-ary heap with lazy cancellation, compaction and event recycling,
// and the backlogs that keep only their head in it, must behave exactly
// like a textbook container/heap DES ordered by (timestamp, sequence) —
// including FIFO tie-breaking and cancellation of already-fired events.

import (
	stdheap "container/heap"
	"math/rand"
	"testing"
)

// diffSched is the scheduling surface the differential workload runs
// against: once backed by the real Engine, once by the reference.
type diffSched interface {
	schedule(at Time, id int)
	push(q int, at Time, id int) // book id on backlog q; at never decreases per q
	cancel(id int)
	now() Time
	run(onFire func(id int))
}

// engineSched drives the real Engine.
type engineSched struct {
	e        *Engine
	handles  map[int]Event
	backlogs [diffBacklogs]*Backlog[int]
	onFire   func(id int)
}

func newEngineSched() *engineSched {
	s := &engineSched{e: NewEngine(1), handles: make(map[int]Event)}
	for q := range s.backlogs {
		s.backlogs[q] = NewBacklog(s.e, func(id int) { s.onFire(id) })
	}
	return s
}

func (s *engineSched) schedule(at Time, id int) {
	s.handles[id] = s.e.ScheduleAt(at, func() { s.onFire(id) })
}
func (s *engineSched) push(q int, at Time, id int) { s.backlogs[q].PushAt(at, id) }
func (s *engineSched) cancel(id int)               { s.handles[id].Cancel() }
func (s *engineSched) now() Time                   { return s.e.Now() }
func (s *engineSched) run(onFire func(id int)) {
	s.onFire = onFire
	s.e.Run()
}

// refSched is the reference implementation: container/heap ordered by
// (at, seq), cancellation via a map, no recycling.
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
	heap      refHeap
	seq       uint64
	cancelled map[int]bool
	t         Time
}

func newRefSched() *refSched { return &refSched{cancelled: make(map[int]bool)} }

func (s *refSched) schedule(at Time, id int) {
	if at < s.t {
		at = s.t
	}
	stdheap.Push(&s.heap, refEvent{at: at, seq: s.seq, id: id})
	s.seq++
}

// push is a plain event: the reference has no backlogs.
func (s *refSched) push(_ int, at Time, id int) { s.schedule(at, id) }
func (s *refSched) cancel(id int)               { s.cancelled[id] = true }
func (s *refSched) now() Time                   { return s.t }
func (s *refSched) run(onFire func(id int)) {
	for s.heap.Len() > 0 {
		ev := stdheap.Pop(&s.heap).(refEvent)
		// Cancelled events do not advance the clock (seed semantics).
		if s.cancelled[ev.id] {
			continue
		}
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
// times that tie with the events and with each other. The rng is
// consumed in firing order, so two schedulers produce the same script
// iff they fire events in the same order — which is what's under test.
func runWorkload(s diffSched, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	const initial = 300
	const maxEvents = 2500
	nextID := 0
	var ids []int // events, the cancellable ids
	var last [diffBacklogs]Time
	book := func() {
		q := rng.Intn(diffBacklogs)
		last[q] = max(last[q], s.now()) + Time(rng.Intn(4))*Time(Nanosecond)
		s.push(q, last[q], nextID)
		nextID++
	}
	for i := 0; i < initial; i++ {
		if rng.Intn(3) == 0 {
			book()
			continue
		}
		s.schedule(Time(rng.Intn(40))*Time(Nanosecond), nextID)
		ids = append(ids, nextID)
		nextID++
	}
	for _, id := range ids {
		if rng.Intn(4) == 0 {
			s.cancel(id)
		}
	}
	var fired []int
	s.run(func(id int) {
		fired = append(fired, id)
		for n := rng.Intn(3); n > 0 && nextID < maxEvents; n-- {
			if rng.Intn(3) == 0 {
				book()
				continue
			}
			s.schedule(s.now()+Time(rng.Intn(15))*Time(Nanosecond), nextID)
			ids = append(ids, nextID)
			nextID++
		}
		if rng.Intn(4) == 0 {
			// May target a fired event: must be a no-op on both sides.
			s.cancel(ids[rng.Intn(len(ids))])
		}
	})
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
	eng := newEngineSched()
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
// ground truth the old implementation computed by scanning the heap.
func TestEnginePendingMatchesScan(t *testing.T) {
	e := NewEngine(1)
	scan := func() int {
		n := 0
		for _, ev := range e.heap {
			if !ev.dead {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(9))
	var handles []Event
	for step := 0; step < 3000; step++ {
		if rng.Intn(3) < 2 {
			handles = append(handles, e.Schedule(Duration(rng.Intn(100))*Nanosecond, func() {}))
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
// heap (compaction), not leave dead entries behind until their
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
	// Compaction keeps dead entries under half the heap at all times.
	if len(e.heap) > 2*live {
		t.Fatalf("heap holds %d entries for %d live events: cancellations leak", len(e.heap), live)
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
