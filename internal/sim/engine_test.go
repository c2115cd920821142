package sim

import (
	"math"
	"testing"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if d := 1500 * Nanosecond; d.Microseconds() != 1.5 {
		t.Errorf("1500ns = %vus", d.Microseconds())
	}
	if got := (3 * Microsecond).Std(); got != 3*time.Microsecond {
		t.Errorf("Std = %v", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{Nanosecond * 3 / 2, "1.50ns"},
		{2500 * Nanosecond, "2.50us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.0000s"},
		{-2500 * Nanosecond, "-2.50us"},
		{math.MinInt64, "-9223372.0369s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestBytesAt(t *testing.T) {
	// 1 byte at 10 Gbit/s is 0.8 ns = 800 ps.
	if got := BytesAt(1, 10); got != 800*Picosecond {
		t.Errorf("BytesAt(1,10) = %v", got)
	}
	// 1500 bytes at 100 Gbit/s is 120 ns.
	if got := BytesAt(1500, 100); got != 120*Nanosecond {
		t.Errorf("BytesAt(1500,100) = %v", got)
	}
	if got := BytesAt(100, 0); got != 0 {
		t.Errorf("BytesAt with zero rate = %v", got)
	}
}

func TestCycles(t *testing.T) {
	// 5 cycles at 156.25 MHz = 32 ns.
	if got := Cycles(5, 156.25); got != 32*Nanosecond {
		t.Errorf("Cycles(5, 156.25) = %v", got)
	}
	// 1 cycle at 322 MHz ~ 3.106 ns.
	got := Cycles(1, 322)
	if got < 3100*Picosecond || got > 3110*Picosecond {
		t.Errorf("Cycles(1, 322) = %v", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != Time(30*Nanosecond) {
		t.Errorf("end = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.Schedule(10*Nanosecond, func() { ran = true })
	if !ev.Pending() {
		t.Error("event should be pending")
	}
	ev.Cancel()
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Fired() != 0 {
		t.Errorf("fired = %d", e.Fired())
	}
}

func TestEngineNestedSchedule(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Schedule(10*Nanosecond, func() {
		at = append(at, e.Now())
		e.Schedule(5*Nanosecond, func() { at = append(at, e.Now()) })
	})
	e.Run()
	if len(at) != 2 || at[0] != Time(10*Nanosecond) || at[1] != Time(15*Nanosecond) {
		t.Errorf("at = %v", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Duration(i)*Microsecond, func() { count++ })
	}
	e.RunUntil(Time(3 * Microsecond))
	if count != 3 {
		t.Errorf("count after RunUntil(3us) = %d", count)
	}
	if e.Now() != Time(3*Microsecond) {
		t.Errorf("now = %v", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.Run()
	if count != 5 {
		t.Errorf("count = %d", count)
	}
}

// RunUntil fires what Run would up to t, daemons included, and stops
// for the horizon as Run does.
func TestEngineRunUntilStops(t *testing.T) {
	cases := []struct {
		name      string
		setup     func(e *Engine, fired *int)
		until     Time
		fired     int
		now       Time
		wantPanic bool
	}{
		{"daemon before t", func(e *Engine, fired *int) {
			e.ScheduleDaemon(5, func() { *fired++ })
		}, 10, 1, 10, false},
		{"horizon", func(e *Engine, fired *int) {
			e.SetHorizon(3)
			for i := 1; i <= 5; i++ {
				e.Schedule(Duration(i), func() { *fired++ })
			}
		}, 100, 3, 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			fired := 0
			c.setup(e, &fired)
			func() {
				defer func() {
					if r := recover(); (r != nil) != c.wantPanic {
						t.Errorf("panic = %v, want panic %v", r, c.wantPanic)
					}
				}()
				e.RunUntil(c.until)
			}()
			if fired != c.fired || e.Now() != c.now {
				t.Errorf("RunUntil(%v): fired %d at %v, want %d at %v", c.until, fired, e.Now(), c.fired, c.now)
			}
			before := e.Now()
			e.SetHorizon(0)
			e.Run()
			if e.Now() < before {
				t.Errorf("Run after RunUntil moved the clock back from %v to %v", before, e.Now())
			}
		})
	}
}

func TestEngineScheduleAtPast(t *testing.T) {
	e := NewEngine(1)
	var fireTime Time
	e.Schedule(10*Nanosecond, func() {
		e.ScheduleAt(Time(1*Nanosecond), func() { fireTime = e.Now() })
	})
	e.Run()
	if fireTime != Time(10*Nanosecond) {
		t.Errorf("past event fired at %v", fireTime)
	}
}

func TestEngineHorizonPanics(t *testing.T) {
	e := NewEngine(1)
	e.SetHorizon(Time(1 * Microsecond))
	e.Schedule(2*Microsecond, func() {})
	defer func() {
		if recover() == nil {
			t.Error("expected horizon panic")
		}
	}()
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var ts []Time
		var rec func(depth int)
		rec = func(depth int) {
			ts = append(ts, e.Now())
			if depth < 4 {
				n := e.Rand().Intn(3) + 1
				for i := 0; i < n; i++ {
					d := Duration(e.Rand().Intn(1000)) * Nanosecond
					e.Schedule(d, func() { rec(depth + 1) })
				}
			}
		}
		e.Schedule(0, func() { rec(0) })
		e.Run()
		return ts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
