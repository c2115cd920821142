package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// event is a scheduled callback queued in one of the engine's two heaps.
// Structs are recycled through the engine's free list once they fire or
// are cancelled, so steady-state scheduling does not allocate;
// outstanding Event handles are invalidated by the generation counter,
// so a struct is queued exactly while some handle to it is valid.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	eng    *Engine
	gen    uint32
	idx    int32 // position in its heap
	far    bool  // queued in the far heap
	daemon bool  // background event: never keeps the simulation alive
}

// Event is a generation-checked handle to a scheduled callback. Handles
// are values: copy them freely. The zero Event is an inert handle —
// Cancel is a no-op and Pending reports false. A handle whose event has
// fired (or was cancelled and reclaimed) becomes stale and behaves like
// the zero handle, so holding on to a handle past its event's lifetime
// is always safe even though the engine recycles event structs.
type Event struct {
	e   *event
	gen uint32
}

// valid reports whether the handle still names its original event.
func (ev Event) valid() bool { return ev.e != nil && ev.e.gen == ev.gen }

// Cancel prevents a pending event from firing: it takes the event out of
// its heap at once, in O(log n), and recycles it. Cancelling an event
// that already fired (or was already cancelled) is a no-op.
func (ev Event) Cancel() {
	if !ev.valid() {
		return
	}
	e, eng := ev.e, ev.e.eng
	if e.daemon {
		eng.ndaemon--
	}
	eng.heapOf(e).remove(e)
	eng.recycle(e)
}

// At reports the simulated time the event is scheduled for (zero for a
// stale or zero handle).
func (ev Event) At() Time {
	if !ev.valid() {
		return 0
	}
	return ev.e.at
}

// Pending reports whether the event is still queued: neither fired nor
// cancelled.
func (ev Event) Pending() bool { return ev.valid() }

// maxFreeEvents bounds the engine's event free list; beyond this, fired
// events are left for the garbage collector.
const maxFreeEvents = 1 << 16

// farAfter is the booking distance beyond which an event waits in the far
// heap: above every pipeline, PCIe and wire delay, below the heartbeat
// (50 µs), retransmission (250–500 µs) and verb deadline (600 µs)
// timers, which rarely fire. The order events fire in does not depend on
// it (see top).
const farAfter = 10 * Microsecond

// heapCap is each heap's starting capacity, above the depths the
// benchmark's test beds reach, so a fresh engine's heaps do not regrow
// while it runs.
const heapCap = 32

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; create engines with NewEngine. Engines
// are not safe for concurrent use: all scheduling must happen from event
// callbacks or from processes, which run only while the engine resumes
// them (see Process). Distinct engines are fully independent, so
// concurrent simulations on separate engines (one per goroutine) stay
// deterministic.
type Engine struct {
	now     Time
	seq     uint64
	near    eventHeap // events booked at most farAfter ahead
	far     eventHeap // events booked further ahead: mostly timers
	ndaemon int       // queued daemon events
	free    []*event  // recycled event structs
	rng     *rand.Rand
	fired   uint64
	limit   Time // the horizon; noHorizon when none is set

	// process support
	running *Process

	// shard support (see shard.go); zero values for standalone engines.
	group    *ShardGroup
	shardIdx int32
	fgAt     Time // when this shard last fired a foreground event
	// closed is set while the group runs a window and this shard is not
	// the one executing: an event scheduled onto it then comes from
	// another shard (see ScheduleAt).
	closed bool
}

// NewEngine returns an engine at time zero with a deterministic RNG seeded
// by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		near:  make(eventHeap, 0, heapCap),
		far:   make(eventHeap, 0, heapCap),
		rng:   rand.New(rand.NewSource(seed)),
		limit: noHorizon,
	}
}

// noHorizon is the limit of an engine without a horizon: no event is
// later, so the run loops test the horizon with one compare.
const noHorizon = Time(math.MaxInt64)

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule runs fn after delay d. Negative delays are treated as zero.
func (e *Engine) Schedule(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// errForeignPast is the panic of an event scheduled onto a shard, in its
// past, from an event of another shard of its running group: the shard
// has already run past the event's time, so the event would fire late.
// CrossScheduleAt carries an event between shards.
const errForeignPast = "sim: event scheduled into a shard's past from another shard of its running group (use CrossScheduleAt)"

// ScheduleAt runs fn at absolute time t. Times in the past fire "now",
// except from an event of another shard of e's running group, where a
// time in e's past panics.
// Events with equal timestamps fire in the order they were booked — by
// ScheduleAt or a Backlog's PushAt — which keeps runs deterministic.
func (e *Engine) ScheduleAt(t Time, fn func()) Event {
	t, seq := e.book(t)
	ev := e.arm(t, seq, fn)
	return Event{e: ev, gen: ev.gen}
}

// book clamps t to now (panicking on another shard's past; see
// ScheduleAt) and draws the sequence number that orders an event booked
// for t among those at the same time.
func (e *Engine) book(t Time) (Time, uint64) {
	if t < e.now {
		if e.closed {
			panic(errForeignPast)
		}
		t = e.now
	}
	e.seq++
	return t, e.seq
}

// arm queues fn at (t, seq), a place book handed out: in the far heap
// when t is more than farAfter ahead of now, in the near heap otherwise.
func (e *Engine) arm(t Time, seq uint64, fn func()) *event {
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, seq, fn
	ev.far = t.Sub(e.now) > farAfter
	e.heapOf(ev).push(ev)
	return ev
}

// ScheduleDaemon runs fn after delay d as a daemon event: it fires in
// timestamp order like any other event, but does not keep the
// simulation alive — Run (and a shard group's barrier loop) terminates
// once only daemon events remain, leaving them unfired. Periodic
// background activity (telemetry scrapers, watchdog probes) schedules
// itself this way so that two observers can never sustain each other
// in an otherwise finished simulation.
func (e *Engine) ScheduleDaemon(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleDaemonAt(e.now.Add(d), fn)
}

// ScheduleDaemonAt is ScheduleDaemon at absolute time t.
func (e *Engine) ScheduleDaemonAt(t Time, fn func()) Event {
	handle := e.ScheduleAt(t, fn)
	handle.e.daemon = true
	e.ndaemon++
	return handle
}

// alloc takes an event struct from the free list, or makes one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{eng: e}
}

// recycle invalidates outstanding handles and returns the struct to the
// free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.daemon = false
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// eventLess orders events by time, breaking ties by scheduling order.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap ordered by (at, seq), with the sift
// loops inlined over that key; each event's idx is its slot.
type eventHeap []*event

// heapOf returns the heap ev is queued in, or is to be.
func (e *Engine) heapOf(ev *event) *eventHeap {
	if ev.far {
		return &e.far
	}
	return &e.near
}

// top returns the heap whose head is the earliest queued event, or nil
// when both are empty. The heads are compared under the heaps' own
// (at, seq) key, so events fire in the one total order that key defines
// whichever heap farAfter put them in.
func (e *Engine) top() *eventHeap {
	if len(e.far) > 0 && (len(e.near) == 0 || eventLess(e.far[0], e.near[0])) {
		return &e.far
	}
	if len(e.near) > 0 {
		return &e.near
	}
	return nil
}

// push inserts ev.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// remove takes ev out: the last event fills its slot and sifts up or
// down from there.
func (h *eventHeap) remove(ev *event) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i := int(ev.idx); i < n {
		if i > 0 && eventLess(last, old[(i-1)>>2]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
}

// up places ev at index i or above it, restoring the heap property.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		pi := (i - 1) >> 2
		p := h[pi]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.idx = int32(i)
		i = pi
	}
	h[i] = ev
	ev.idx = int32(i)
}

// down places ev at index i or below it, restoring the heap property.
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[best]) {
				best = j
			}
		}
		if !eventLess(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].idx = int32(i)
		i = best
	}
	h[i] = ev
	ev.idx = int32(i)
}

// SetHorizon aborts Run once simulated time would pass t (a safety net
// against runaway simulations). Zero disables the horizon.
func (e *Engine) SetHorizon(t Time) {
	if t == 0 {
		t = noHorizon
	}
	e.limit = t
}

// errShardRun is the panic of Run or RunUntil on a shard: running one
// shard on its own would advance one machine and strand the events bound
// for the others in its outbox. The group runs its shards.
const errShardRun = "sim: a shard of a ShardGroup runs only as part of the group"

// Run executes events until the queue holds nothing but daemon events or
// the horizon is crossed. It returns the final simulated time. Trailing
// daemon events are left queued unfired. It panics on a shard of a
// ShardGroup.
func (e *Engine) Run() Time {
	e.run(0, false)
	return e.now
}

// RunUntil executes every event at or before time t, daemons included,
// leaving later events queued, and then moves the clock to t (if it is
// not already later), which it returns. The horizon panics as in Run. It
// panics on a shard of a ShardGroup.
func (e *Engine) RunUntil(t Time) Time {
	e.run(t, true)
	if e.now < t {
		e.now = t
	}
	return e.now
}

// run is the loop of Run and RunUntil. They differ only in when it
// stops: Run once no foreground event is left, RunUntil (bounded) once
// the next event is after t.
func (e *Engine) run(t Time, bounded bool) {
	if e.group != nil {
		panic(errShardRun)
	}
	for h := e.top(); h != nil; h = e.top() {
		ev := (*h)[0]
		if bounded && ev.at > t || !bounded && e.Pending() == 0 {
			return
		}
		if ev.at > e.limit {
			panic(fmt.Sprintf("sim: horizon %v exceeded (event at %v after %d events)", e.limit, ev.at, e.fired))
		}
		h.remove(ev)
		if ev.daemon {
			e.ndaemon--
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
}

// Pending reports the number of queued foreground events in O(1): both
// heaps' lengths minus the daemon events (a cancelled event has left its
// heap already). Daemons are excluded because Pending answers "is there
// work that keeps the simulation alive?" — the question Run, the shard
// barrier loop and self-limiting probes all ask.
func (e *Engine) Pending() int {
	return len(e.near) + len(e.far) - e.ndaemon
}
