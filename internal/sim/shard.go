package sim

import (
	"fmt"
	"sort"
	"sync"
)

// This file implements deterministic intra-run parallelism: a ShardGroup
// partitions the event space of one simulation into per-machine shards
// (one Engine each) and executes them with conservative lookahead — the
// classic null-message bound. A shard may advance its local clock up to
// the minimum cross-shard link latency beyond the global minimum event
// time; events crossing a shard boundary (fabric frame deliveries,
// control-plane RPCs) travel through per-source outboxes that are drained
// at window barriers in a globally deterministic order.
//
// Determinism argument (see DESIGN.md §13): within a window [T, T+L) a
// shard executes only its own events, touching only shard-local state, so
// its execution is a pure function of its heap and RNG regardless of
// which worker goroutine runs it or when. Every cross-shard event posted
// during the window carries a timestamp ≥ its post time + L ≥ T + L, so
// it cannot affect the current window of any shard (causality is
// conservative). At the barrier, outboxes are merged in the fixed
// (timestamp, source shard, source posting order) order before being
// injected, so destination-shard FIFO sequence numbers — the engine's
// same-timestamp tie-break — are assigned identically for every worker
// count. Same seed therefore means byte-identical simulation output
// whether the group runs on one goroutine or many.

// crossEvent is an event posted from one shard to another, parked in the
// source shard's outbox until the window barrier. postAt is the source
// shard's clock at posting time, kept for per-link lookahead validation.
type crossEvent struct {
	at     Time
	postAt Time
	dst    int32
	src    int32
	fn     func()
}

// ShardGroup runs a set of engines (shards) as one simulation under
// conservative lookahead. Construct with NewShardGroup, place each
// simulated machine's components on their own Shard(i) engine, wire
// cross-shard paths through CrossScheduleAt, then Run.
//
// Workers controls real parallelism only: the simulation result is
// byte-identical for every worker count (including 1, the sequential
// execution of the same sharded structure).
type ShardGroup struct {
	shards    []*Engine
	outbox    [][]crossEvent // indexed by source shard
	merged    []crossEvent   // barrier scratch, reused across windows
	lookahead Duration
	linkLA    map[[2]int32]Duration // optional per-link lookahead declarations
	workers   int

	daemonsTo Time // daemons up to here may fire on a shard with no foreground work (see frontier)

	windows  uint64 // barrier windows executed
	crossed  uint64 // cross-shard events delivered
	running  bool
	workerWG sync.WaitGroup
	jobs     chan int
	done     chan workerResult
}

// workerResult reports one shard's window execution back to the barrier.
type workerResult struct {
	shard int
	panic any
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
		workers:   1,
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

// Shards reports the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Lookahead returns the conservative lookahead bound.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// SetLinkLookahead declares the src→dst cross-shard link's own minimum
// latency. The group lookahead stays the window width (soundness needs
// only the global minimum), but every cross event on a declared link is
// additionally validated against the link's tighter bound at the
// barrier, so a topology with heterogeneous links (a shard-per-machine
// star hanging off switch ports, say) catches a component that posts
// with less delay than its cable provides. d must be ≥ the group
// lookahead — a smaller value would mean the group lookahead itself is
// unsound for the topology.
func (g *ShardGroup) SetLinkLookahead(src, dst *Engine, d Duration) {
	if src.group != g || dst.group != g {
		panic("sim: SetLinkLookahead engines must belong to this group")
	}
	if d < g.lookahead {
		panic(fmt.Sprintf("sim: link lookahead %v below group lookahead %v", d, g.lookahead))
	}
	if g.linkLA == nil {
		g.linkLA = make(map[[2]int32]Duration)
	}
	g.linkLA[[2]int32{src.shardIdx, dst.shardIdx}] = d
}

// SetWorkers caps the number of goroutines executing shards within a
// window. Values outside [1, Shards()] are clamped. The worker count
// never affects simulation results, only wall-clock time.
func (g *ShardGroup) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	if w > len(g.shards) {
		w = len(g.shards)
	}
	g.workers = w
}

// Workers reports the configured worker cap.
func (g *ShardGroup) Workers() int { return g.workers }

// Windows reports how many barrier windows have been executed.
func (g *ShardGroup) Windows() uint64 { return g.windows }

// Crossed reports how many cross-shard events have been delivered.
func (g *ShardGroup) Crossed() uint64 { return g.crossed }

// Fired sums executed events across all shards.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.Fired()
	}
	return n
}

// SetHorizon installs the runaway-safety horizon on every shard.
func (g *ShardGroup) SetHorizon(t Time) {
	for _, s := range g.shards {
		s.SetHorizon(t)
	}
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

// post parks a cross-shard event in src's outbox until the next barrier.
// Only called from within src's event callbacks (single goroutine per
// shard), so outboxes need no locking.
func (g *ShardGroup) post(src int32, dst int32, at Time, fn func()) {
	g.outbox[src] = append(g.outbox[src], crossEvent{
		at: at, postAt: g.shards[src].Now(), dst: dst, src: src, fn: fn,
	})
}

// Run executes the simulation to completion: windows of width lookahead
// are run across all shards (in parallel up to Workers goroutines),
// separated by barriers that exchange cross-shard events. It returns the
// final simulated time (the maximum across shards). Run terminates when
// every shard's queue is empty and no cross events remain, or when any
// shard halts.
func (g *ShardGroup) Run() Time {
	if g.running {
		panic("sim: ShardGroup.Run re-entered")
	}
	g.running = true
	defer func() { g.running = false }()
	for _, s := range g.shards {
		s.halted = false
	}
	if g.workers > 1 {
		g.startWorkers()
		defer g.stopWorkers()
	}
	for {
		// Outboxes are empty here (drained by the previous barrier).
		next, ok := g.frontier()
		if !ok {
			break
		}
		window := next.Add(g.lookahead)
		g.windows++
		halted := g.runWindow(window)
		g.drainOutboxes(window)
		if halted {
			break
		}
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

// runWindow executes every shard up to (but excluding) window, serially
// or on the worker pool, and reports whether any shard halted.
func (g *ShardGroup) runWindow(window Time) bool {
	if g.workers <= 1 || len(g.shards) == 1 {
		for _, s := range g.shards {
			s.runBefore(window)
		}
	} else {
		for _, s := range g.shards {
			s.windowEnd = window
		}
		for i := range g.shards {
			g.jobs <- i
		}
		var pan any
		for range g.shards {
			r := <-g.done
			if r.panic != nil && pan == nil {
				pan = r.panic
			}
		}
		if pan != nil {
			panic(pan)
		}
	}
	for _, s := range g.shards {
		if s.halted {
			return true
		}
	}
	return false
}

// startWorkers launches the long-lived window workers. Each worker picks
// shard indices off the jobs channel; the window barrier is the done
// channel. The per-shard windowEnd is stored before jobs are posted, so
// workers never touch group state concurrently.
func (g *ShardGroup) startWorkers() {
	n := g.workers
	if n > len(g.shards) {
		n = len(g.shards)
	}
	g.jobs = make(chan int, len(g.shards))
	g.done = make(chan workerResult, len(g.shards))
	g.workerWG.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer g.workerWG.Done()
			for i := range g.jobs {
				g.runShardJob(i)
			}
		}()
	}
}

// runShardJob executes one shard's window on a worker, converting panics
// (e.g. the horizon safety net) into a result the barrier re-raises.
func (g *ShardGroup) runShardJob(i int) {
	defer func() {
		g.done <- workerResult{shard: i, panic: recover()}
	}()
	g.shards[i].runBefore(g.shards[i].windowEnd)
}

// stopWorkers shuts the pool down.
func (g *ShardGroup) stopWorkers() {
	close(g.jobs)
	g.workerWG.Wait()
	g.jobs, g.done = nil, nil
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
	// within equal timestamps.
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	for _, ce := range all {
		if ce.at < window {
			panic(fmt.Sprintf("sim: lookahead violated: cross-shard event from shard %d to %d at %v inside window ending %v",
				ce.src, ce.dst, ce.at, window))
		}
		if la, ok := g.linkLA[[2]int32{ce.src, ce.dst}]; ok && ce.at < ce.postAt.Add(la) {
			panic(fmt.Sprintf("sim: link lookahead violated: shard %d posted to %d at %v for %v, link bound %v",
				ce.src, ce.dst, ce.postAt, ce.at, la))
		}
		g.shards[ce.dst].ScheduleAt(ce.at, ce.fn)
		g.crossed++
	}
	for i := range all {
		all[i].fn = nil
	}
	g.merged = all[:0]
}

// CrossScheduleAt schedules fn on engine dst at absolute time t, from an
// event callback running on e. When both engines are shards of the same
// running group, the event is parked in e's outbox and injected at the
// next window barrier (t must respect the group's lookahead: t ≥ e.Now()
// + lookahead). In every other case — same engine, no group, or the
// group not running (pre/post-run wiring) — it degenerates to a plain
// dst.ScheduleAt, so unsharded topologies behave exactly as before.
func (e *Engine) CrossScheduleAt(dst *Engine, t Time, fn func()) {
	if dst == e || e.group == nil || e.group != dst.group || !e.group.running {
		dst.ScheduleAt(t, fn)
		return
	}
	e.group.post(e.shardIdx, dst.shardIdx, t, fn)
}

// CrossSchedule is CrossScheduleAt after delay d of e's local time.
func (e *Engine) CrossSchedule(dst *Engine, d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.CrossScheduleAt(dst, e.now.Add(d), fn)
}

// Group returns the shard group this engine belongs to (nil for a
// standalone engine).
func (e *Engine) Group() *ShardGroup { return e.group }

// ShardIndex returns this engine's shard index within its group (0 for a
// standalone engine).
func (e *Engine) ShardIndex() int { return int(e.shardIdx) }

// peek returns the time of the earliest live event, lazily reclaiming
// cancelled entries sitting on top of the heap.
func (e *Engine) peek() (Time, bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !top.dead {
			return top.at, true
		}
		e.pop()
		e.ndead--
		e.recycle(top)
	}
	return 0, false
}

// runBefore executes events with timestamps strictly before w, leaving
// later events queued. Unlike Run it does not reset the halted flag (the
// group manages it) and stops early when the shard halts.
func (e *Engine) runBefore(w Time) {
	for len(e.heap) > 0 && !e.halted {
		ev := e.heap[0]
		if ev.dead {
			e.pop()
			e.ndead--
			e.recycle(ev)
			continue
		}
		if ev.at >= w {
			break
		}
		if ev.daemon && e.Pending() == 0 && ev.at > e.group.daemonsTo {
			break // only daemons left here: they wait for the group's bound
		}
		if e.limit != 0 && ev.at > e.limit {
			panic(fmt.Sprintf("sim: horizon %v exceeded (event at %v after %d events)", e.limit, ev.at, e.fired))
		}
		e.pop()
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
}
