package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the sharded engine: a ShardGroup partitions the
// event space of one simulation into per-machine shards (one Engine
// each) and runs them in windows of conservative lookahead — the classic
// null-message bound. Within a window every shard may advance its local
// clock up to the minimum cross-shard link latency beyond the global
// minimum event time; events crossing a shard boundary (fabric frame
// deliveries, control-plane RPCs) travel through per-source outboxes
// that are drained at window barriers in a globally deterministic order.
//
// The group runs each window's shards one after another, in index
// order, on the goroutine that called Run; concurrency comes only from
// running whole simulations side by side (see DESIGN.md §1.4). The
// partition fixes the order events run in: within a window [T, T+L) a
// shard executes only its own events, touching only shard-local state.
// Every cross-shard event posted during the window carries a timestamp
// ≥ its post time + L ≥ T + L, so it cannot affect the current window of
// any shard. At the barrier, outboxes are merged in the fixed
// (timestamp, source shard, source posting order) order before being
// injected, so destination-shard FIFO sequence numbers — the engine's
// same-timestamp tie-break — are a pure function of the seed.

// crossEvent is an event posted from one shard to another, parked in the
// source shard's outbox until the window barrier. When q is set the
// barrier books v on it instead of scheduling fn (see CrossPushAt).
type crossEvent struct {
	at  Time
	dst int32
	src int32
	fn  func()
	q   *Backlog[[]byte]
	v   []byte
}

// ShardGroup runs a set of engines (shards) as one simulation under
// conservative lookahead. Construct with NewShardGroup, place each
// simulated machine's components on their own Shard(i) engine, wire
// cross-shard paths through CrossScheduleAt, then Run.
type ShardGroup struct {
	shards    []*Engine
	outbox    [][]crossEvent // indexed by source shard
	merged    []crossEvent   // barrier scratch, reused across windows
	lookahead Duration

	daemonsTo Time // daemons up to here may fire on a shard with no foreground work (see frontier)

	crossed uint64 // cross-shard events delivered
	running bool
}

// shardSeedMix derives statistically independent per-shard RNG seeds from
// the group seed (splitmix64 finalizer).
func shardSeedMix(seed int64, shard int) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewShardGroup creates n shards with deterministically derived RNG seeds
// and the given conservative lookahead (the minimum cross-shard latency;
// every CrossScheduleAt delay must be ≥ it). n must be ≥ 1 and lookahead
// > 0.
func NewShardGroup(seed int64, n int, lookahead Duration) *ShardGroup {
	if n < 1 {
		panic("sim: ShardGroup needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	g := &ShardGroup{
		shards:    make([]*Engine, n),
		outbox:    make([][]crossEvent, n),
		lookahead: lookahead,
	}
	for i := range g.shards {
		e := NewEngine(shardSeedMix(seed, i))
		e.group = g
		e.shardIdx = int32(i)
		g.shards[i] = e
	}
	return g
}

// Shard returns shard i's engine. Components of one simulated machine
// must all live on the same shard.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the conservative lookahead bound.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// SetWorkers does nothing: a group always runs on the goroutine that
// calls Run. It remains only for benchmark/layers.go until that file
// drops the call.
func (g *ShardGroup) SetWorkers(int) {}

// Fired sums executed events across all shards.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.Fired()
	}
	return n
}

// Now returns the maximum local clock across shards (the group's notion
// of elapsed simulated time once Run has returned).
func (g *ShardGroup) Now() Time {
	var t Time
	for _, s := range g.shards {
		if s.Now() > t {
			t = s.Now()
		}
	}
	return t
}

// post parks a cross-shard event in its source shard's outbox until the
// next barrier. Only called from within the source's event callbacks.
func (g *ShardGroup) post(ce crossEvent) {
	g.outbox[ce.src] = append(g.outbox[ce.src], ce)
}

// Run executes the simulation to completion: windows of width lookahead
// are run across all shards, separated by barriers that exchange
// cross-shard events. It returns the final simulated time (the maximum
// across shards). Run terminates when every shard's queue is empty and
// no cross events remain.
func (g *ShardGroup) Run() Time {
	if g.running {
		panic("sim: ShardGroup.Run re-entered")
	}
	g.running = true
	defer func() {
		g.running = false
		for _, s := range g.shards {
			s.closed = false
		}
	}()
	for {
		// Outboxes are empty here (drained by the previous barrier).
		next, ok := g.frontier()
		if !ok {
			break
		}
		window := next.Add(g.lookahead)
		g.runWindow(window)
		g.drainOutboxes(window)
	}
	return g.Now()
}

// frontier returns the earliest event the next window may run, and false
// when the simulation is over. Daemon events fire exactly as on a
// standalone engine — while foreground work at or after them remains
// anywhere, never after the last of it — so a run ends at the same time
// and samples the same instants however it is sharded. A shard knows
// that of its own queue; for a daemon on a shard with no foreground work
// left the group supplies a bound: the latest time a foreground event is
// known to fire at (one has, or a shard that still holds one cannot run
// it before its head). A later daemon waits in the heap (runBefore); once
// every foreground queue is empty the bound is the end of the run and
// the waiting daemons up to it get their window.
func (g *ShardGroup) frontier() (Time, bool) {
	var bound, busy, idle Time // idle: the earliest daemon on a shard with nothing else
	haveBusy, haveIdle := false, false
	for _, s := range g.shards {
		bound = max(bound, s.fgAt)
		if t, ok := s.peek(); ok && s.Pending() > 0 {
			bound = max(bound, t)
			if !haveBusy || t < busy {
				busy, haveBusy = t, true
			}
		} else if ok && (!haveIdle || t < idle) {
			idle, haveIdle = t, true
		}
	}
	g.daemonsTo = bound
	if haveIdle && idle <= bound && (!haveBusy || idle < busy) {
		return idle, true
	}
	return busy, haveBusy
}

// runWindow executes every shard up to (but excluding) window, in index
// order. Every shard is closed to
// direct scheduling for the window except while it runs itself
// (runBefore), and open again for the barrier.
func (g *ShardGroup) runWindow(window Time) {
	for _, s := range g.shards {
		s.closed = true
	}
	for _, s := range g.shards {
		s.runBefore(window)
	}
	for _, s := range g.shards {
		s.closed = false
	}
}

// drainOutboxes merges every outbox in the canonical (timestamp, source
// shard, posting order) order and injects the events into their
// destination shards, assigning destination FIFO sequence numbers in that
// same order — the stable tie-break the determinism contract rests on.
func (g *ShardGroup) drainOutboxes(window Time) {
	all := g.merged[:0]
	for src := range g.outbox {
		all = append(all, g.outbox[src]...)
		g.outbox[src] = g.outbox[src][:0]
	}
	// Stable sort on timestamp alone: the concatenation order above is
	// (source shard, posting order), which the stable sort preserves
	// within equal timestamps. The comparator captures nothing, so the
	// sort allocates nothing.
	slices.SortStableFunc(all, func(a, b crossEvent) int { return cmp.Compare(a.at, b.at) })
	for i := range all {
		ce := &all[i]
		if ce.at < window {
			panic(fmt.Sprintf("sim: lookahead violated: cross-shard event from shard %d to %d at %v inside window ending %v",
				ce.src, ce.dst, ce.at, window))
		}
		if ce.q != nil {
			ce.q.PushAt(ce.at, ce.v)
		} else {
			g.shards[ce.dst].ScheduleAt(ce.at, ce.fn)
		}
		g.crossed++
	}
	clear(all) // drop the callbacks and payloads the scratch still holds
	g.merged = all[:0]
}

// crosses reports whether an event from e to dst must wait for a window
// barrier: both are distinct shards of one running group.
func (e *Engine) crosses(dst *Engine) bool {
	return dst != e && e.group != nil && e.group == dst.group && e.group.running
}

// CrossScheduleAt schedules fn on engine dst at absolute time t, from an
// event callback running on e. When both engines are shards of the same
// running group, the event is parked in e's outbox and injected at the
// next window barrier (t must respect the group's lookahead: t ≥ e.Now()
// + lookahead). In every other case — same engine, or the group not
// running (pre/post-run wiring) — it is a plain dst.ScheduleAt.
func (e *Engine) CrossScheduleAt(dst *Engine, t Time, fn func()) {
	if !e.crosses(dst) {
		dst.ScheduleAt(t, fn)
		return
	}
	e.group.post(crossEvent{at: t, dst: dst.shardIdx, src: e.shardIdx, fn: fn})
}

// CrossPushAt is q.PushAt(t, v) from an event callback running on e,
// where q may belong to another engine. Between shards of a running
// group the booking waits in e's outbox like a CrossScheduleAt event and
// the barrier makes it, so a frame crosses without a closure built
// around it.
func (e *Engine) CrossPushAt(t Time, q *Backlog[[]byte], v []byte) {
	dst := q.eng
	if !e.crosses(dst) {
		q.PushAt(t, v)
		return
	}
	e.group.post(crossEvent{at: t, dst: dst.shardIdx, src: e.shardIdx, q: q, v: v})
}

// CrossSchedule is CrossScheduleAt after delay d of e's local time.
func (e *Engine) CrossSchedule(dst *Engine, d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.CrossScheduleAt(dst, e.now.Add(d), fn)
}

// peek returns the time of the earliest queued event.
func (e *Engine) peek() (Time, bool) {
	if h := e.top(); h != nil {
		return (*h)[0].at, true
	}
	return 0, false
}

// runBefore executes events with timestamps strictly before w, leaving
// later events queued. The shard is open to scheduling only while it
// runs.
func (e *Engine) runBefore(w Time) {
	e.closed = false
	for h := e.top(); h != nil; h = e.top() {
		ev := (*h)[0]
		if ev.at >= w {
			break
		}
		if ev.daemon && e.Pending() == 0 && ev.at > e.group.daemonsTo {
			break // only daemons left here: they wait for the group's bound
		}
		if ev.at > e.limit {
			panic(fmt.Sprintf("sim: horizon %v exceeded (event at %v after %d events)", e.limit, ev.at, e.fired))
		}
		h.remove(ev)
		if ev.daemon {
			e.ndaemon--
		} else {
			e.fgAt = ev.at
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	e.closed = true
}
