package fabric

import (
	"testing"

	"strom/internal/packet"
	"strom/internal/raceflag"
	"strom/internal/sim"
)

// recycler consumes delivered frames the way a NIC does: it counts them
// and returns each to the pool.
type recycler struct{ frames int }

func (r *recycler) DeliverFrame(f []byte) {
	r.frames++
	packet.PutBuf(f)
}

// forwardBed is a two-port switch on one engine with the pool, PFC and
// ECN of the KV test bed; send puts a pooled copy of one 1000 B frame
// from port A toward port B on the uplink, which takes it over as it
// does a NIC's frame.
func forwardBed() (eng *sim.Engine, send func(), dst *recycler) {
	eng = sim.NewEngine(1)
	sw := NewSwitchCfg(eng, SwitchConfig{
		Link:              DirectCable10G(),
		Forwarding:        500 * sim.Nanosecond,
		BufferBytes:       512 << 10,
		PFCPauseBytes:     32 << 10,
		ECNThresholdBytes: 16 << 10,
	})
	dst = &recycler{}
	in := sw.AttachPortOn(eng, macA, &recycler{})
	sw.AttachPortOn(eng, macB, dst)
	frame := mkframe(macB, 1000)
	return eng, func() { in.Send(packet.CloneFrame(frame)) }, dst
}

// TestAllocsSwitchedFrame guards the switched data path the way the
// TestAllocs* guards of the cable path do: once warm, a frame from one
// NIC through the switch to another allocates nothing. The uplink is a
// direction like either side of a Link, delivering through its drain
// queue without a per-frame closure; the egress port queues the frame's
// release the same way; and the frame copies are pooled.
func TestAllocsSwitchedFrame(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	eng, send, dst := forwardBed()
	step := func() {
		send()
		eng.Run()
	}
	for i := 0; i < 100; i++ { // queues, event free list and pool at size
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n > 0 {
		t.Errorf("a switched frame allocates %.2f times, want 0", n)
	}
	if dst.frames != 1101 {
		t.Errorf("delivered %d frames, want 1101", dst.frames)
	}
}

// BenchmarkSwitchForward is one frame across the switch, sent in bursts
// of 64 that never pause the port: uplink, admission, ECN check, egress
// wire and release.
func BenchmarkSwitchForward(b *testing.B) {
	eng, send, dst := forwardBed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
	if dst.frames != b.N {
		b.Fatalf("delivered %d of %d frames", dst.frames, b.N)
	}
}

// cableBed is a 10 G cable from an endpoint on one engine to dst, on one
// engine or across the two shards of a sim.ShardGroup. burst(n) sends n
// pooled copies of a 1000 B frame from A in one event and runs the
// simulation to the end.
func cableBed(sharded bool) (burst func(n int), dst *recycler) {
	var engA, engB *sim.Engine
	var run func() sim.Time
	if sharded {
		g := sim.NewShardGroup(1, 2, DirectCable10G().Propagation)
		engA, engB, run = g.Shard(0), g.Shard(1), g.Run
	} else {
		eng := sim.NewEngine(1)
		engA, engB, run = eng, eng, eng.Run
	}
	dst = &recycler{}
	link := NewLinkOn(engA, engB, DirectCable10G(), &recycler{}, dst)
	frame := mkframe(macB, 1000)
	left := 0
	send := func() {
		for ; left > 0; left-- {
			link.SendFromA(packet.CloneFrame(frame))
		}
	}
	return func(n int) {
		left = n
		engA.Schedule(0, send)
		run()
	}, dst
}

// TestAllocsCrossShardFrame: a frame that crosses from one shard to
// another allocates no more than one that stays on a single engine. The
// source shard parks it in its outbox beside the destination's drain
// queue, the barrier pushes it there, and the barrier's merge sorts in
// place — no closure per frame, nothing per barrier.
func TestAllocsCrossShardFrame(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	allocs := func(sharded bool) float64 {
		burst, dst := cableBed(sharded)
		step := func() { burst(1) }
		for i := 0; i < 100; i++ { // queues, event free lists, outbox and pool at size
			step()
		}
		n := testing.AllocsPerRun(1000, step)
		if dst.frames != 1101 {
			t.Errorf("sharded=%v: delivered %d frames, want 1101", sharded, dst.frames)
		}
		return n
	}
	one, two := allocs(false), allocs(true)
	if two > one {
		t.Errorf("a frame allocates %.2f times across two shards, %.2f times on one engine", two, one)
	}
}

// BenchmarkCrossShardFrame is one frame across a cable whose ends sit on
// two shards, in bursts of 64: wire, outbox, barrier merge and drain.
func BenchmarkCrossShardFrame(b *testing.B) {
	burst, dst := cableBed(true)
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += 64 {
		burst(min(64, b.N-sent))
	}
	if dst.frames != b.N {
		b.Fatalf("delivered %d of %d frames", dst.frames, b.N)
	}
}
