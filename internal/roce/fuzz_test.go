package roce

import (
	"testing"

	"strom/internal/fabric"
	"strom/internal/sim"
)

// FuzzQPStateMachine drives the QP lifecycle state machine with an
// arbitrary interleaving of verbs, link blackholes, resets, freezes and
// time advancement, then checks the recovery contract that everything
// else in this package is built on: every post the stack ACCEPTED
// completes EXACTLY once — no lost completions, no double completions —
// no matter how the QP dies and comes back.
func FuzzQPStateMachine(f *testing.F) {
	f.Add(int64(1), []byte{0, 5, 1, 5, 4, 5, 6, 5, 0, 5})         // happy path + blackhole + recover
	f.Add(int64(2), []byte{2, 3, 4, 5, 5, 5, 6, 0, 5})            // reads/rpc into exhaustion
	f.Add(int64(3), []byte{7, 0, 2, 7, 6, 5, 1, 5})               // freeze with idle QP, restart
	f.Add(int64(4), []byte{0, 1, 2, 3, 7, 5, 7, 6, 5, 0, 5, 255}) // freeze mid-flight
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		if len(program) > 128 {
			program = program[:128]
		}
		p := newPair(t, seed%1024, shortRetryConfig(), fabric.DirectCable10G())

		// Every accepted verb gets a counting completion callback.
		var counts []int
		track := func() func(error) {
			i := len(counts)
			counts = append(counts, 0)
			return func(error) { counts[i]++ }
		}
		accept := func(err error) {
			if err != nil {
				// Rejected post: the callback must never fire. Mark the
				// slot so the final check wants zero instead of one.
				counts[len(counts)-1] = -1
			}
		}
		acceptMsg := func(_ *Message, err error) { accept(err) }

		blackhole := false
		for _, op := range program {
			switch op % 8 {
			case 0:
				accept(p.a.PostWrite(1, uint64(op)*64, []byte{op}, track()))
			case 1:
				accept(p.a.PostWrite(1, 0, make([]byte, 4<<10), track()))
			case 2:
				acceptMsg(p.a.PostRead(1, 0, 0, 2048, func(off int, chunk []byte, ack func()) { ack() }, track()))
			case 3:
				acceptMsg(p.a.PostRPC(1, uint64(op), []byte("params"), track()))
			case 4:
				blackhole = !blackhole
				p.link.SetOfflineAtoB(blackhole)
			case 5:
				p.eng.RunUntil(p.eng.Now().Add(sim.Duration(op+1) * sim.Microsecond))
			case 6:
				// Coordinated reconnect; tolerated from any state.
				if p.b.ResetQP(2) == nil && p.a.ResetQP(1) == nil {
					p.b.ReconnectQP(2)
					p.a.ReconnectQP(1)
				}
			case 7:
				if p.a.frozen {
					p.a.Restart()
				} else {
					p.a.Freeze()
				}
			}
		}

		// Drain: heal the link, revive the stack, reconnect both ends and
		// run the engine dry. Resets flush whatever the fault schedule
		// left outstanding.
		p.link.SetOfflineAtoB(false)
		if p.a.frozen {
			p.a.Restart()
		}
		if err := p.b.ResetQP(2); err != nil {
			t.Fatalf("final reset B: %v", err)
		}
		if err := p.a.ResetQP(1); err != nil {
			t.Fatalf("final reset A: %v", err)
		}
		if err := p.b.ReconnectQP(2); err != nil {
			t.Fatalf("final reconnect B: %v", err)
		}
		if err := p.a.ReconnectQP(1); err != nil {
			t.Fatalf("final reconnect A: %v", err)
		}
		p.eng.Run()

		for i, c := range counts {
			switch {
			case c == -1:
				// Rejected post; nothing to check (a fired callback would
				// have bumped it to 0 or above and tripped below).
			case c == 0:
				t.Fatalf("op %d: accepted but never completed (lost completion)", i)
			case c > 1:
				t.Fatalf("op %d: completed %d times (exactly-once violated)", i, c)
			}
		}
		if st, _ := p.a.QPStateOf(1); st != QPStateRTS {
			t.Fatalf("final state = %v, want RTS", st)
		}
	})
}
