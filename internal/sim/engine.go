package sim

import (
	"fmt"
	"math/rand"
)

// event is the heap-internal representation of a scheduled callback.
// Structs are recycled through the engine's free list once they fire or
// are compacted away, so steady-state scheduling does not allocate;
// outstanding Event handles are invalidated by the generation counter.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	eng    *Engine
	gen    uint32
	idx    int32 // position in the heap, -1 when not queued
	dead   bool
	daemon bool // background event: never keeps the simulation alive
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

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op. The event stays
// queued but inert until the run loop skips it or a compaction sweep
// reclaims it.
func (ev Event) Cancel() {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.dead || e.idx < 0 {
		return
	}
	e.dead = true
	eng := e.eng
	eng.ndead++
	if e.daemon {
		e.daemon = false
		eng.ndaemon--
	}
	// Compact when over half the queue is dead so mass cancellation
	// cannot grow the heap unboundedly.
	if eng.ndead*2 > len(eng.heap) {
		eng.compact()
	}
}

// At reports the simulated time the event is scheduled for (zero for a
// stale or zero handle).
func (ev Event) At() Time {
	if !ev.valid() {
		return 0
	}
	return ev.e.at
}

// Pending reports whether the event is still queued and not cancelled.
func (ev Event) Pending() bool {
	return ev.valid() && !ev.e.dead && ev.e.idx >= 0
}

// maxFreeEvents bounds the engine's event free list; beyond this, fired
// events are left for the garbage collector.
const maxFreeEvents = 1 << 16

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
	heap    []*event // 4-ary min-heap ordered by (at, seq)
	ndead   int      // cancelled events still occupying heap slots
	ndaemon int      // live queued daemon events
	free    []*event // recycled event structs
	rng     *rand.Rand
	fired   uint64
	limit   Time // 0 means no horizon
	halted  bool

	// process support
	running *Process

	// shard support (see shard.go); zero values for standalone engines.
	group     *ShardGroup
	shardIdx  int32
	windowEnd Time
	fgAt      Time // when this shard last fired a foreground event
}

// NewEngine returns an engine at time zero with a deterministic RNG seeded
// by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

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

// ScheduleAt runs fn at absolute time t. Times in the past fire "now".
// Events with equal timestamps fire in the order they were scheduled
// (FIFO), which keeps runs deterministic.
func (e *Engine) ScheduleAt(t Time, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.dead = false
	e.push(ev)
	return Event{e: ev, gen: ev.gen}
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
	return &event{eng: e, idx: -1}
}

// recycle invalidates outstanding handles and returns the struct to the
// free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.idx = -1
	ev.dead = false
	ev.daemon = false
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// eventLess orders events by time, breaking ties by scheduling order.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev into the 4-ary heap.
func (e *Engine) push(ev *event) {
	i := len(e.heap)
	e.heap = append(e.heap, ev)
	for i > 0 {
		pi := (i - 1) >> 2
		p := e.heap[pi]
		if !eventLess(ev, p) {
			break
		}
		e.heap[i] = p
		p.idx = int32(i)
		i = pi
	}
	e.heap[i] = ev
	ev.idx = int32(i)
}

// pop removes and returns the minimum event.
func (e *Engine) pop() *event {
	h := e.heap
	top := h[0]
	top.idx = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
	return top
}

// siftDown places ev at index i and restores the heap property below it.
func (e *Engine) siftDown(i int, ev *event) {
	h := e.heap
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

// compact rebuilds the heap without its cancelled events, recycling them.
// Pop order is unchanged: the heap shape differs but the (at, seq) total
// order that Run follows is the same.
func (e *Engine) compact() {
	h := e.heap
	live := h[:0]
	for _, ev := range h {
		if ev.dead {
			e.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(h); i++ {
		h[i] = nil
	}
	e.heap = live
	e.ndead = 0
	for i := range live {
		live[i].idx = int32(i)
	}
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, live[i])
	}
}

// Halt stops the run loop after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// SetHorizon aborts Run once simulated time would pass t (a safety net
// against runaway simulations). Zero disables the horizon.
func (e *Engine) SetHorizon(t Time) { e.limit = t }

// Run executes events until the queue holds nothing but daemon events,
// Halt is called, or the horizon is crossed. It returns the final
// simulated time. Trailing daemon events are left queued unfired.
func (e *Engine) Run() Time {
	e.halted = false
	for e.Pending() > 0 && !e.halted {
		ev := e.pop()
		if ev.dead {
			e.ndead--
			e.recycle(ev)
			continue
		}
		if e.limit != 0 && ev.at > e.limit {
			panic(fmt.Sprintf("sim: horizon %v exceeded (event at %v after %d events)", e.limit, ev.at, e.fired))
		}
		if ev.daemon {
			e.ndaemon--
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	return e.now
}

// RunUntil executes events up to and including time t, leaving later
// events queued. It returns the simulated time reached (t, or earlier if
// the queue drained).
func (e *Engine) RunUntil(t Time) Time {
	for e.Pending() > 0 {
		ev := e.heap[0]
		if ev.dead {
			e.pop()
			e.ndead--
			e.recycle(ev)
			continue
		}
		if ev.at > t {
			e.now = t
			return e.now
		}
		e.pop()
		if ev.daemon {
			e.ndaemon--
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	if e.now < t {
		e.now = t
	}
	return e.now
}

// Pending reports the number of live queued foreground events in O(1):
// the heap length minus cancelled-but-unreclaimed entries and daemon
// events. Daemons are excluded because Pending answers "is there work
// that keeps the simulation alive?" — the question Run, the shard
// barrier loop and self-limiting probes all ask.
func (e *Engine) Pending() int {
	return len(e.heap) - e.ndead - e.ndaemon
}
