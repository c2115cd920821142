package sim

import "testing"

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

func BenchmarkEngineQueuedEvents(b *testing.B) {
	// Scheduling cost with a deep queue (the heap path).
	e := NewEngine(1)
	for i := 0; i < 10000; i++ {
		e.Schedule(Duration(i)*Microsecond, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%10000)*Microsecond, func() {}).Cancel()
	}
}

func BenchmarkSerializerReserve(b *testing.B) {
	e := NewEngine(1)
	s := NewSerializer(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reserve(Nanosecond)
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Go("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleCancel is a deadline that never fires: one far-future
// Schedule and its Cancel against a 15-event heap, the depth the KV test
// beds run at. The deadline goes to the far heap and Cancel takes it out
// again at once.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	nop := func() {}
	for i := 0; i < 15; i++ {
		e.Schedule(Duration(i+1)*Microsecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Millisecond, nop).Cancel()
	}
}

// BenchmarkEngineTimers is the KV beds' heap shape: about 1 000 timers
// pending (retransmission timers and heartbeats that fire after the run)
// behind a pipeline whose events fire one at a time. Each op fires one
// near event, books two 600 µs deadlines and cancels the two booked one
// op earlier, as a verb's two deadlines are cancelled at its completion.
func BenchmarkEngineTimers(b *testing.B) {
	e := NewEngine(1)
	nop := func() {}
	for i := range 1000 {
		e.Schedule(10*Second+Duration(i)*Microsecond, nop)
	}
	var prev [2]Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Nanosecond, nop)
		e.RunUntil(e.Now().Add(Nanosecond))
		next := [2]Event{e.Schedule(600*Microsecond, nop), e.Schedule(600*Microsecond, nop)}
		prev[0].Cancel()
		prev[1].Cancel()
		prev = next
	}
}

// BenchmarkBacklogDeep books a burst of 4 096 items at one instant on a
// Backlog and drains it, the depth a pipeline stage reaches under a
// figure's bursts; one op is one item booked and fired. Only the burst's
// head is in the heap, so the cost per item does not grow with the burst.
func BenchmarkBacklogDeep(b *testing.B) {
	const n = 4096
	e := NewEngine(1)
	bl := NewBacklog(e, func(int) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		at := e.Now().Add(Nanosecond)
		for k := range min(n, b.N-i) {
			bl.PushAt(at, k)
		}
		e.Run()
	}
}
