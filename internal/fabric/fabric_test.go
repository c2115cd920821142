package fabric

import (
	"bytes"
	"testing"

	"strom/internal/packet"
	"strom/internal/sim"
)

type sink struct {
	frames []([]byte)
	times  []sim.Time
	eng    *sim.Engine
}

func (s *sink) DeliverFrame(f []byte) {
	s.frames = append(s.frames, f)
	s.times = append(s.times, s.eng.Now())
}

func TestLinkDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	frame := make([]byte, 1000)
	frame[0] = 0xAB
	eng.Schedule(0, func() { l.SendFromA(packet.CloneFrame(frame)) })
	eng.Run()
	if len(b.frames) != 1 || len(a.frames) != 0 {
		t.Fatalf("a=%d b=%d frames", len(a.frames), len(b.frames))
	}
	if !bytes.Equal(b.frames[0], frame) {
		t.Error("frame corrupted in transit")
	}
	// 1024 wire bytes at 10G = 819.2 ns + 150 ns propagation.
	want := sim.BytesAt(1000+packet.EthFramingOverhead, 10) + 150*sim.Nanosecond
	if got := sim.Duration(b.times[0]); got != want {
		t.Errorf("arrival at %v, want %v", got, want)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	eng.Schedule(0, func() {
		l.SendFromA(make([]byte, 500))
		l.SendFromB(make([]byte, 500))
	})
	eng.Run()
	if len(a.frames) != 1 || len(b.frames) != 1 {
		t.Fatal("full duplex broken")
	}
	// Both directions serialize independently: same arrival time.
	if a.times[0] != b.times[0] {
		t.Errorf("asymmetric delivery: %v vs %v", a.times[0], b.times[0])
	}
}

func TestLinkSerializationQueueing(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			l.SendFromA(make([]byte, 1000))
		}
	})
	eng.Run()
	if len(b.frames) != 3 {
		t.Fatalf("%d frames", len(b.frames))
	}
	gap := b.times[1] - b.times[0]
	want := sim.Time(sim.BytesAt(1000+packet.EthFramingOverhead, 10))
	if gap != want {
		t.Errorf("inter-frame gap %v, want %v", sim.Duration(gap), sim.Duration(want))
	}
}

func TestLinkThroughputAtLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	const n = 1000
	payload := 1466 // a full-MTU StRoM frame buffer
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			l.SendFromA(make([]byte, payload))
		}
	})
	eng.Run()
	last := b.times[len(b.times)-1]
	gbps := float64(n*payload) * 8 / sim.Duration(last).Seconds() / 1e9
	// Goodput below 10 G because of framing overhead, near 9.7.
	if gbps < 9.3 || gbps > 10 {
		t.Errorf("goodput %.2f Gbit/s", gbps)
	}
}

func TestLinkDropInjection(t *testing.T) {
	eng := sim.NewEngine(7)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	l.SetFaultsAtoB(Coin{Rand: eng.Rand(), DropProb: 0.5})
	const n = 1000
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			l.SendFromA(make([]byte, 100))
		}
	})
	eng.Run()
	st := l.StatsAtoB()
	if st.Frames != n {
		t.Errorf("frames = %d", st.Frames)
	}
	if st.Dropped < 400 || st.Dropped > 600 {
		t.Errorf("dropped = %d, want ~500", st.Dropped)
	}
	if uint64(len(b.frames))+st.Dropped != n {
		t.Error("delivered + dropped != sent")
	}
}

func TestLinkCorruptionInjection(t *testing.T) {
	eng := sim.NewEngine(8)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	l.SetFaultsAtoB(Coin{Rand: eng.Rand(), CorruptProb: 1.0})
	orig := make([]byte, 100)
	// The link corrupts the frame it was handed: send a copy, as a NIC
	// does, and keep the original to compare.
	eng.Schedule(0, func() { l.SendFromA(packet.CloneFrame(orig)) })
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatal("frame lost")
	}
	if bytes.Equal(b.frames[0], orig) {
		t.Error("frame not corrupted")
	}
	diff := 0
	for i := range orig {
		diff += popcount8(b.frames[0][i] ^ orig[i])
	}
	if diff != 1 {
		t.Errorf("%d bits flipped, want exactly 1", diff)
	}
	if l.StatsAtoB().Corrupted != 1 {
		t.Error("corruption not counted")
	}
}

func popcount8(b byte) int {
	n := 0
	for b != 0 {
		n++
		b &= b - 1
	}
	return n
}

func TestLinkUtilisation(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	eng.Schedule(0, func() { l.SendFromA(make([]byte, 1000)) })
	eng.Run()
	if u := l.UtilisationAtoB(); u <= 0 || u > 1 {
		t.Errorf("utilisation = %v", u)
	}
}

func TestSwitchRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitchCfg(eng, SwitchConfig{Link: DirectCable10G(), Forwarding: 500 * sim.Nanosecond})
	macA := packet.MAC{2, 0, 0, 0, 0, 1}
	macB := packet.MAC{2, 0, 0, 0, 0, 2}
	macC := packet.MAC{2, 0, 0, 0, 0, 3}
	a, b, c := &sink{eng: eng}, &sink{eng: eng}, &sink{eng: eng}
	txA := sw.AttachPortOn(eng, macA, a).Send
	sw.AttachPortOn(eng, macB, b)
	sw.AttachPortOn(eng, macC, c)
	frame := make([]byte, 100)
	copy(frame[0:6], macB[:])
	eng.Schedule(0, func() { txA(frame) })
	eng.Run()
	if len(b.frames) != 1 || len(a.frames) != 0 || len(c.frames) != 0 {
		t.Errorf("a=%d b=%d c=%d", len(a.frames), len(b.frames), len(c.frames))
	}
}

func TestSwitchAddsForwardingLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	fw := 2 * sim.Microsecond
	sw := NewSwitchCfg(eng, SwitchConfig{Link: DirectCable10G(), Forwarding: fw})
	macA := packet.MAC{2, 0, 0, 0, 0, 1}
	macB := packet.MAC{2, 0, 0, 0, 0, 2}
	b := &sink{eng: eng}
	txA := sw.AttachPortOn(eng, macA, &sink{eng: eng}).Send
	sw.AttachPortOn(eng, macB, b)
	frame := make([]byte, 100)
	copy(frame[0:6], macB[:])
	eng.Schedule(0, func() { txA(frame) })
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatal("no delivery")
	}
	if sim.Duration(b.times[0]) < fw {
		t.Errorf("arrival %v earlier than forwarding delay", b.times[0])
	}
}

func TestSwitchDropsUnknownMAC(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitchCfg(eng, SwitchConfig{Link: DirectCable10G()})
	macA := packet.MAC{2, 0, 0, 0, 0, 1}
	txA := sw.AttachPortOn(eng, macA, &sink{eng: eng}).Send
	frame := make([]byte, 100) // dst MAC all-zero: unknown
	frame[5] = 0x77
	eng.Schedule(0, func() { txA(frame) })
	eng.Run() // must not panic
}

func TestSwitchLosslessByDefault(t *testing.T) {
	// PFC mode (unbounded queues): a burst far beyond line rate is
	// delivered in full, just late.
	eng := sim.NewEngine(1)
	sw := NewSwitchCfg(eng, SwitchConfig{Link: DirectCable10G()})
	macA := packet.MAC{2, 0, 0, 0, 0, 1}
	macB := packet.MAC{2, 0, 0, 0, 0, 2}
	b := &sink{eng: eng}
	txA := sw.AttachPortOn(eng, macA, &sink{eng: eng}).Send
	sw.AttachPortOn(eng, macB, b)
	const n = 500
	frame := make([]byte, 1000)
	copy(frame[0:6], macB[:])
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			txA(frame)
		}
	})
	eng.Run()
	if len(b.frames) != n {
		t.Errorf("delivered %d/%d in lossless mode", len(b.frames), n)
	}
	if sw.Dropped(macB) != 0 {
		t.Errorf("drops in lossless mode: %d", sw.Dropped(macB))
	}
}

func TestSwitchIncastTailDrop(t *testing.T) {
	// Two senders converge on one egress at full rate: with a buffer of
	// 16 frames the switch must tail-drop, and the drop count plus
	// deliveries must account for every frame. A discard is counted at the
	// port the frame came in on.
	eng := sim.NewEngine(2)
	sw := NewSwitchCfg(eng, SwitchConfig{Link: DirectCable10G(), BufferBytes: 16 * 1200})
	macA := packet.MAC{2, 0, 0, 0, 0, 1}
	macB := packet.MAC{2, 0, 0, 0, 0, 2}
	macC := packet.MAC{2, 0, 0, 0, 0, 3}
	c := &sink{eng: eng}
	txA := sw.AttachPortOn(eng, macA, &sink{eng: eng}).Send
	txB := sw.AttachPortOn(eng, macB, &sink{eng: eng}).Send
	sw.AttachPortOn(eng, macC, c)
	const n = 400
	frame := make([]byte, 1200)
	copy(frame[0:6], macC[:])
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			txA(frame)
			txB(frame)
		}
	})
	eng.Run()
	dropped := sw.Dropped(macA) + sw.Dropped(macB)
	if dropped == 0 {
		t.Error("incast with a 16-frame buffer did not drop")
	}
	if uint64(len(c.frames))+dropped != 2*n {
		t.Errorf("delivered %d + dropped %d != sent %d", len(c.frames), dropped, 2*n)
	}
	// The port nothing came in on is unaffected.
	if sw.Dropped(macC) != 0 {
		t.Error("drops leaked to other ports")
	}
	if sw.Dropped(packet.MAC{9}) != 0 {
		t.Error("unknown port reports drops")
	}
}

func TestEndpointFunc(t *testing.T) {
	called := false
	EndpointFunc(func(f []byte) { called = true }).DeliverFrame(nil)
	if !called {
		t.Error("EndpointFunc did not call through")
	}
}

func TestLinkDropCauseBreakdown(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	l.SetFaultsAtoB(&FrameScript{Steps: []FrameStep{
		{Verdict: Verdict{Drop: true}},                  // zero cause: chaos bucket
		{Verdict: Verdict{Drop: true, Cause: DropFlap}}, // explicit flap
		{}, // delivered
		{Verdict: Verdict{Drop: true, Cause: DropChaos}}, // explicit chaos
	}})
	// The link takes each frame over (and pools the ones it drops), so
	// every send is a fresh frame.
	send := func() { l.SendFromA(make([]byte, 100)) }
	for i := 0; i < 4; i++ {
		eng.Schedule(sim.Duration(i)*sim.Microsecond, send)
	}
	// Two frames into an offline window, then one after it reopens.
	eng.Schedule(10*sim.Microsecond, func() { l.SetOfflineAtoB(true) })
	eng.Schedule(11*sim.Microsecond, send)
	eng.Schedule(12*sim.Microsecond, send)
	eng.Schedule(13*sim.Microsecond, func() { l.SetOfflineAtoB(false) })
	eng.Schedule(14*sim.Microsecond, send)
	eng.Run()

	st := l.StatsAtoB()
	if st.Frames != 7 {
		t.Fatalf("Frames = %d, want 7", st.Frames)
	}
	if st.Dropped != 5 || st.DroppedChaos != 2 || st.DroppedFlap != 1 || st.DroppedOffline != 2 {
		t.Fatalf("drop breakdown %+v, want total 5 = chaos 2 + flap 1 + offline 2", st)
	}
	if sum := st.DroppedChaos + st.DroppedFlap + st.DroppedOffline; sum != st.Dropped {
		t.Fatalf("causes sum to %d, aggregate says %d", sum, st.Dropped)
	}
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(b.frames))
	}
	ch, _ := l.HealthAtoB()
	if ch["out_discards"] != 5 || ch["out_discards_offline"] != 2 || ch["out_discards_chaos"] != 2 || ch["out_discards_flap"] != 1 {
		t.Fatalf("health counters %v disagree with stats", ch)
	}
	if ch["out_frames"] != 7 {
		t.Fatalf("health out_frames = %d, want 7", ch["out_frames"])
	}
}

// A Coin's drop sets no cause, so it lands in the chaos bucket.
func TestCoinDropCause(t *testing.T) {
	eng := sim.NewEngine(2)
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, DirectCable10G(), a, b)
	l.SetFaultsAtoB(Coin{Rand: eng.Rand(), DropProb: 1})
	eng.Schedule(0, func() { l.SendFromA(make([]byte, 64)) })
	eng.Run()
	st := l.StatsAtoB()
	if st.Dropped != 1 || st.DroppedChaos != 1 {
		t.Fatalf("coin drop not attributed to chaos: %+v", st)
	}
}

// A FrameScript's steps fire once each and in order, each on the Nth
// frame of its length after the previous step fired; Do runs at that
// instant; every frame no step claims goes to Next.
func TestFrameScript(t *testing.T) {
	var fired []int
	do := func(i int) func() { return func() { fired = append(fired, i) } }
	s := &FrameScript{
		Steps: []FrameStep{
			{Len: 200, Do: do(0)},
			{Len: 100, Nth: 1, Verdict: Verdict{Drop: true}, Do: do(1)},
			{Verdict: Verdict{Delay: sim.Microsecond}},
		},
		Next: DropFrame(3),
	}
	var got []Verdict
	for _, n := range []int{100, 200, 100, 100, 300, 300} {
		got = append(got, s.Judge(0, n))
	}
	want := []Verdict{
		{},                       // a 100 before the 200: Next's frame 0
		{},                       // step 0
		{},                       // the first 100 behind it: Next's frame 1
		{Drop: true},             // step 1
		{Delay: sim.Microsecond}, // step 2 takes whatever comes
		{},                       // script spent: Next's frame 2
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d: verdict %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 || len(s.Steps) != 0 {
		t.Errorf("Do calls %v, steps left %d", fired, len(s.Steps))
	}
	if v := s.Judge(0, 64); !v.Drop {
		t.Errorf("Next's frame 3 got %+v, want its drop", v)
	}
}
