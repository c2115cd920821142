package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestShardGroupSameTimestampCrossOrder(t *testing.T) {
	// Three source shards post to shard 0 at the identical timestamp; the
	// canonical order is (timestamp, source shard, posting order).
	g := NewShardGroup(1, 4, Microsecond)
	var order []int
	at := Time(5 * Microsecond)
	for src := 3; src >= 1; src-- {
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
		t.Fatalf("cross order %v, want %v", order, want)
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

func TestShardGroupProcessesOnShards(t *testing.T) {
	// One process per shard, exchanging wake-ups via cross-shard events:
	// shard 0's process sleeps, posts to shard 1, whose process completes.
	g := NewShardGroup(3, 2, 100*Nanosecond)
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
		t.Fatalf("got %v want %v", got, want)
	}
}

// A process on a shard is suspended and resumed across a few hundred
// windows: it keeps its state on its own stack and in its own slice,
// wakes exactly when it asked to in each, and two runs at one seed wake
// at the same times.
func TestShardGroupProcessResumedAcrossWorkers(t *testing.T) {
	run := func() [4][]Time {
		g := NewShardGroup(5, 4, 100*Nanosecond)
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
	one, two := run(), run()
	if !reflect.DeepEqual(one, two) {
		t.Fatal("process wake times differ between two runs")
	}
	for i := range one {
		if len(one[i]) != 300 {
			t.Fatalf("process %d woke %d times, want 300", i, len(one[i]))
		}
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
// same-timestamp events landing exactly on window boundaries — and holds
// every destination shard to the barrier's contract: it runs its cross
// events at exactly their timestamps, never in the window they were
// posted in (a barrier has delivered at least one event since, so
// Crossed has moved past its value at posting), and in (timestamp,
// source shard, posting order) — among events of equal timestamp, those
// of an earlier barrier first.
func FuzzShardSchedule(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(16))
	f.Add(int64(42), uint8(2), uint8(40))
	f.Add(int64(-7), uint8(4), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nsRaw, events uint8) {
		nShards := 2 + int(nsRaw)%3
		nEvents := 1 + int(events)%48
		const la = 100 * Nanosecond
		g := NewShardGroup(seed, nShards, la)
		// post is one cross event as its source posted it; order is the
		// order the barrier must deliver one destination's events in.
		type post struct {
			at      Time
			batch   uint64 // crossed at posting: one value per window
			src, nr int
		}
		order := func(a, b post) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.batch, b.batch),
				cmp.Compare(a.src, b.src), cmp.Compare(a.nr, b.nr))
		}
		delivered := make([][]post, nShards)
		posted := make([]int, nShards)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < nEvents; i++ {
			src := rng.Intn(nShards)
			dst := (src + 1 + rng.Intn(nShards-1)) % nShards
			fan := 1 + rng.Intn(3)
			// Starts on a half-lookahead grid, so sources collide on
			// delivery timestamps.
			start := Time(rng.Intn(40)) * Time(la/2)
			g.Shard(src).ScheduleAt(start, func() {
				e := g.Shard(src)
				for range fan {
					// Aim some deliveries exactly at multiples of the
					// lookahead (window-boundary timestamps).
					at := e.Now().Add(la * Duration(1+e.Rand().Int63n(3)))
					ps := post{at: at, batch: g.crossed, src: src, nr: posted[src]}
					posted[src]++
					e.CrossScheduleAt(g.Shard(dst), ps.at, func() {
						if now := g.Shard(dst).Now(); now != ps.at {
							t.Errorf("shard %d ran a cross event for %v at %v", dst, ps.at, now)
						}
						if g.crossed <= ps.batch {
							t.Errorf("shard %d ran a cross event from %d in the window it was posted in", dst, ps.src)
						}
						delivered[dst] = append(delivered[dst], ps)
					})
				}
			})
		}
		g.Run()
		sent, ran := 0, 0
		for dst, got := range delivered {
			sent, ran = sent+posted[dst], ran+len(got)
			if !slices.IsSortedFunc(got, order) {
				t.Fatalf("shard %d ran its cross events out of (timestamp, source shard, posting order): %+v", dst, got)
			}
		}
		if ran != sent || uint64(sent) != g.crossed {
			t.Fatalf("%d cross events posted, %d run, %d crossed", sent, ran, g.crossed)
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
	g := NewShardGroup(1, 3, lookahead)
	got, end := run(g.Shard(0), g.Shard(1), g.Shard(2), g.Run)
	if end != wantEnd {
		t.Errorf("run ends at %v, standalone at %v", end, wantEnd)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("sampler %d fired %d times, last at %v; on a standalone engine %d times, last at %v",
				i, len(got[i]), got[i][len(got[i])-1], len(want[i]), want[i][len(want[i])-1])
		}
	}
}
