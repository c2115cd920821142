package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// shardTrace records one execution step for differential comparison.
type shardTrace struct {
	Shard int
	At    Time
	Tag   int
}

// runPingPong wires nShards shards that bounce tagged events to their
// neighbour with latencies ≥ lookahead, plus local same-timestamp noise
// events, recording every execution per shard (no cross-shard logging,
// so parallel runs stay race-free). Returns the merged log and group.
func runPingPong(seed int64, nShards, workers int, lookahead Duration, hops int) ([]shardTrace, *ShardGroup) {
	g := NewShardGroup(seed, nShards, lookahead)
	g.SetWorkers(workers)
	locals := make([][]shardTrace, nShards)
	var hop func(shard, tag, remaining int)
	hop = func(shard, tag, remaining int) {
		e := g.Shard(shard)
		locals[shard] = append(locals[shard], shardTrace{Shard: shard, At: e.Now(), Tag: tag})
		if remaining == 0 {
			return
		}
		// Local noise at the same timestamp as the cross event will have
		// on the destination — exercising the same-timestamp tie-break.
		dst := (shard + 1) % nShards
		delay := lookahead + Duration(e.Rand().Int63n(int64(lookahead)))
		at := e.Now().Add(delay)
		e.CrossScheduleAt(g.Shard(dst), at, func() { hop(dst, tag, remaining-1) })
		e.Schedule(delay, func() {
			locals[shard] = append(locals[shard], shardTrace{Shard: shard, At: e.Now(), Tag: -tag})
		})
	}
	for s := 0; s < nShards; s++ {
		shard := s
		g.Shard(shard).Schedule(0, func() { hop(shard, shard+1, hops) })
	}
	g.Run()
	var merged []shardTrace
	for s := range locals {
		merged = append(merged, locals[s]...)
	}
	return merged, g
}

func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	const hops = 50
	var want []shardTrace
	var wantTime Time
	var wantFired, wantCrossed uint64
	for _, workers := range []int{1, 2, 4} {
		log, g := runPingPong(7, 4, workers, 100*Nanosecond, hops)
		if workers == 1 {
			want, wantTime = log, g.Now()
			wantFired, wantCrossed = g.Fired(), g.Crossed()
			if wantCrossed == 0 {
				t.Fatal("expected cross-shard traffic")
			}
			continue
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("workers=%d: execution log diverged from sequential run", workers)
		}
		if g.Now() != wantTime || g.Fired() != wantFired || g.Crossed() != wantCrossed {
			t.Fatalf("workers=%d: now/fired/crossed %v/%d/%d, want %v/%d/%d",
				workers, g.Now(), g.Fired(), g.Crossed(), wantTime, wantFired, wantCrossed)
		}
	}
}

func TestShardGroupSameTimestampCrossOrder(t *testing.T) {
	// Three source shards post to shard 0 at the identical timestamp; the
	// canonical order is (timestamp, source shard, posting order),
	// regardless of worker count.
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(1, 4, Microsecond)
		g.SetWorkers(workers)
		var order []int
		at := Time(5 * Microsecond)
		for src := 3; src >= 1; src-- {
			src := src
			g.Shard(src).Schedule(0, func() {
				e := g.Shard(src)
				for k := 0; k < 2; k++ {
					tag := src*10 + k
					e.CrossScheduleAt(g.Shard(0), at, func() { order = append(order, tag) })
				}
			})
		}
		g.Run()
		want := []int{10, 11, 20, 21, 30, 31}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("workers=%d: cross order %v, want %v", workers, order, want)
		}
	}
}

func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(1, 2, Microsecond)
	g.Shard(0).Schedule(0, func() {
		// Half the lookahead: a causality violation the barrier must catch.
		g.Shard(0).CrossSchedule(g.Shard(1), 500*Nanosecond, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	g.Run()
}

func TestShardGroupHaltStopsRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(1, 2, Microsecond)
		g.SetWorkers(workers)
		fired := 0
		g.Shard(1).Schedule(Microsecond, func() { g.Shard(1).Halt() })
		g.Shard(1).Schedule(10*Microsecond, func() { fired++ })
		g.Shard(0).Schedule(20*Microsecond, func() { fired++ })
		g.Run()
		if fired != 0 {
			t.Fatalf("workers=%d: events fired after halt", workers)
		}
	}
}

func TestShardGroupProcessesOnShards(t *testing.T) {
	// One process per shard, exchanging wake-ups via cross-shard events:
	// shard 0's process sleeps, posts to shard 1, whose process completes.
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(3, 2, 100*Nanosecond)
		g.SetWorkers(workers)
		var got []string
		var done Completion[struct{}]
		g.Shard(1).Go("receiver", func(p *Process) {
			done.Wait(p)
			got = append(got, fmt.Sprintf("recv@%v", p.Now()))
		})
		g.Shard(0).Go("sender", func(p *Process) {
			p.Sleep(Microsecond)
			g.Shard(0).CrossSchedule(g.Shard(1), 200*Nanosecond, func() { done.Complete(struct{}{}) })
		})
		g.Run()
		want := []string{"recv@1.20us"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: got %v want %v", workers, got, want)
		}
	}
}

// A process is resumed by whichever worker runs its shard's window: a
// different goroutine from one window to the next, never two at once.
// Each process here keeps state on its own stack and in its own slice
// across a few hundred windows; under -race this is the check that the
// window barrier orders one worker's resume before the next worker's.
func TestShardGroupProcessResumedAcrossWorkers(t *testing.T) {
	run := func(workers int) [4][]Time {
		g := NewShardGroup(5, 4, 100*Nanosecond)
		g.SetWorkers(workers)
		var marks [4][]Time
		for i := 0; i < 4; i++ {
			g.Shard(i).Go(fmt.Sprintf("p%d", i), func(p *Process) {
				sum := Duration(0)
				for k := 0; k < 300; k++ {
					d := Duration(50+p.Engine().Rand().Intn(200)) * Nanosecond
					p.Sleep(d)
					sum += d
					marks[i] = append(marks[i], p.Now())
				}
				if p.Now() != Time(sum) {
					t.Errorf("p%d: woke at %v after sleeping %v", i, p.Now(), sum)
				}
			})
		}
		g.Run()
		return marks
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatal("process wake times differ between 1 and 4 workers")
	}
	if len(one[3]) != 300 {
		t.Fatalf("process 3 woke %d times, want 300", len(one[3]))
	}
}

func TestShardGroupUnshardedCrossScheduleDegenerates(t *testing.T) {
	// CrossScheduleAt between two standalone engines (or pre-run) is a
	// plain ScheduleAt on the destination.
	a, b := NewEngine(1), NewEngine(2)
	ran := false
	a.CrossScheduleAt(b, Time(5*Microsecond), func() { ran = true })
	b.Run()
	if !ran {
		t.Fatal("cross event did not run on destination engine")
	}
}

// A shard cannot be run on its own: Run or RunUntil on one would advance
// that machine alone and strand the events bound for the others.
func TestShardRunOnItsOwnPanics(t *testing.T) {
	for name, run := range map[string]func(*Engine){
		"Run":      func(e *Engine) { e.Run() },
		"RunUntil": func(e *Engine) { e.RunUntil(Time(Microsecond)) },
	} {
		g := NewShardGroup(1, 2, Microsecond)
		fired := false
		g.Shard(0).Schedule(0, func() { fired = true })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a shard did not panic", name)
				}
			}()
			run(g.Shard(0))
		}()
		if fired {
			t.Errorf("%s on a shard fired its event", name)
		}
	}
}

// Mid-run, an event of one shard that schedules onto another at a time
// that shard has already run past panics instead of firing late. Shard 0
// runs its part of the window [3 µs, 4 µs) first, to 3.5 µs; shard 1's
// event at 3 µs then aims at 3 µs there. A watch-driven wake
// (Process.WakeBy) is let through and fires at the shard's now. Before
// and after the run, wiring code schedules onto any shard.
func TestForeignScheduleIntoPastPanics(t *testing.T) {
	noop := func() {}
	g := NewShardGroup(1, 2, Microsecond)
	a, b := g.Shard(0), g.Shard(1)
	a.ScheduleAt(Time(3500*Nanosecond), noop)
	b.ScheduleAt(Time(3*Microsecond), func() { a.ScheduleAt(b.Now(), noop) })
	func() {
		defer func() {
			if r := recover(); r != errForeignPast {
				t.Errorf("recovered %v, want the foreign-past panic", r)
			}
		}()
		g.Run()
	}()

	g = NewShardGroup(1, 2, Microsecond)
	a, b = g.Shard(0), g.Shard(1)
	var wokeAt Time
	poller := a.Go("poller", func(p *Process) {
		p.ParkUntil(0)
		wokeAt = p.Now()
	})
	a.ScheduleAt(Time(3500*Nanosecond), noop)
	b.ScheduleAt(Time(3*Microsecond), func() { poller.WakeBy(b.Now()) })
	g.Run()
	if wokeAt != Time(3500*Nanosecond) {
		t.Errorf("late wake fired at %v, want 3.5 µs", wokeAt)
	}

	fired := 0
	b.ScheduleAt(0, func() { b.CrossSchedule(a, Microsecond, func() { fired++ }) })
	a.ScheduleAt(0, func() { fired++ })
	g.Run()
	if fired != 2 {
		t.Errorf("fired %d events, want 2", fired)
	}
}

func TestShardGroupSingleShard(t *testing.T) {
	g := NewShardGroup(9, 1, Microsecond)
	n := 0
	g.Shard(0).Schedule(0, func() { n++ })
	g.Shard(0).Schedule(3*Microsecond, func() { n++ })
	if end := g.Run(); end != Time(3*Microsecond) || n != 2 {
		t.Fatalf("single-shard run: end %v fired %d", end, n)
	}
}

// FuzzShardSchedule drives random cross-shard schedules — including
// same-timestamp events landing exactly on window boundaries — and
// asserts the parallel execution order is byte-identical to sequential.
func FuzzShardSchedule(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(16))
	f.Add(int64(42), uint8(2), uint8(40))
	f.Add(int64(-7), uint8(4), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nsRaw, events uint8) {
		nShards := 2 + int(nsRaw)%3
		nEvents := 1 + int(events)%48
		run := func(workers int) ([]shardTrace, Time) {
			const la = 100 * Nanosecond
			g := NewShardGroup(seed, nShards, la)
			g.SetWorkers(workers)
			locals := make([][]shardTrace, nShards)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < nEvents; i++ {
				src := rng.Intn(nShards)
				dst := rng.Intn(nShards)
				tag := i
				start := Time(rng.Int63n(int64(2 * Microsecond)))
				g.Shard(src).ScheduleAt(start, func() {
					e := g.Shard(src)
					locals[src] = append(locals[src], shardTrace{Shard: src, At: e.Now(), Tag: tag})
					// Aim some deliveries exactly at multiples of the
					// lookahead (window-boundary timestamps).
					delay := la * Duration(1+e.Rand().Int63n(3))
					e.CrossScheduleAt(g.Shard(dst), e.Now().Add(delay), func() {
						locals[dst] = append(locals[dst], shardTrace{Shard: dst, At: g.Shard(dst).Now(), Tag: -tag})
					})
				})
			}
			g.Run()
			var merged []shardTrace
			for s := range locals {
				merged = append(merged, locals[s]...)
			}
			return merged, g.Now()
		}
		seqLog, seqEnd := run(1)
		parLog, parEnd := run(nShards)
		if !reflect.DeepEqual(seqLog, parLog) || seqEnd != parEnd {
			t.Fatalf("parallel execution diverged from sequential (seed %d, %d shards, %d events)",
				seed, nShards, nEvents)
		}
	})
}

func BenchmarkShardGroupWindowOverhead(b *testing.B) {
	// Two shards exchanging one cross event per window: measures the
	// barrier cost that bounds sharded speedup for fine-grained traffic.
	g := NewShardGroup(1, 2, 100*Nanosecond)
	var hop func(shard int, remaining int)
	hop = func(shard, remaining int) {
		if remaining == 0 {
			return
		}
		dst := 1 - shard
		g.Shard(shard).CrossSchedule(g.Shard(dst), 100*Nanosecond, func() { hop(dst, remaining-1) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Shard(0).Schedule(0, func() { hop(0, b.N) })
	g.Run()
}

// Daemon events on a sharded group fire at the instants a standalone
// engine fires them — while foreground work at or after them remains
// anywhere, never after the last of it — whichever shard holds them, and
// the run ends with its last foreground event either way.
func TestShardDaemonsEndWithForeground(t *testing.T) {
	const lookahead = 150 * Nanosecond
	// A foreground ping-pong between a and b that dies out at 9.35 µs,
	// and a 130 ns sampler on each of a, b and idle (which holds nothing
	// else), so samplers sit on busy, half-busy and idle shards alike.
	run := func(a, b, idle *Engine, run func() Time) (samples [3][]Time, end Time) {
		var hop func(from, to *Engine, left int)
		hop = func(from, to *Engine, left int) {
			if left > 0 {
				from.CrossSchedule(to, lookahead+400*Nanosecond, func() { hop(to, from, left-1) })
			}
		}
		a.Schedule(0, func() { hop(a, b, 17) })
		for i, e := range []*Engine{a, b, idle} {
			var tick func()
			tick = func() {
				samples[i] = append(samples[i], e.Now())
				e.ScheduleDaemon(130*Nanosecond, tick)
			}
			e.ScheduleDaemon(130*Nanosecond, tick)
		}
		return samples, run()
	}
	one := NewEngine(1)
	want, wantEnd := run(one, one, one, one.Run)
	if wantEnd != Time(17*550*Nanosecond) || len(want[2]) != int(wantEnd/Time(130*Nanosecond)) {
		t.Fatalf("standalone run: end %v with %d samples", wantEnd, len(want[2]))
	}
	for _, workers := range []int{1, 3} {
		g := NewShardGroup(1, 3, lookahead)
		g.SetWorkers(workers)
		got, end := run(g.Shard(0), g.Shard(1), g.Shard(2), g.Run)
		if end != wantEnd {
			t.Errorf("workers=%d: run ends at %v, standalone at %v", workers, end, wantEnd)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: sampler %d fired %d times, last at %v; on a standalone engine %d times, last at %v",
					workers, i, len(got[i]), got[i][len(got[i])-1], len(want[i]), want[i][len(want[i])-1])
			}
		}
	}
}
