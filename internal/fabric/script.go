package fabric

import (
	"math/rand"

	"strom/internal/sim"
)

// FrameStep is one entry of a FrameScript: the Nth frame (0-based) of
// length Len (0: of any length) to enter the direction once the previous
// step has fired gets Verdict, and Do, if set, runs at that instant.
type FrameStep struct {
	Len     int
	Nth     int
	Verdict Verdict
	Do      func()
}

// FrameScript is the deterministic FaultInjector: "kill exactly packet k
// of n", "let the extent frame through, drop the slot frame behind it and
// crash the server". Its steps fire once each, in order; every frame no
// step claims is judged by Next (nil passes it), so a script composes
// with the chaos fault site already on the direction. It lives here and
// not in internal/chaos because this package's and roce's in-package
// tests use it, and chaos imports both.
type FrameScript struct {
	Steps []FrameStep
	Next  FaultInjector

	seen int // matching frames since the last step fired
}

// DropFrame returns the script that drops the nth frame (0-based) to
// enter the direction.
func DropFrame(nth int) *FrameScript {
	return &FrameScript{Steps: []FrameStep{{Nth: nth, Verdict: Verdict{Drop: true}}}}
}

// Judge implements FaultInjector.
func (s *FrameScript) Judge(now sim.Time, frameLen int) Verdict {
	if len(s.Steps) > 0 {
		if st := &s.Steps[0]; st.Len == 0 || st.Len == frameLen {
			if s.seen == st.Nth {
				s.Steps, s.seen = s.Steps[1:], 0
				if st.Do != nil {
					st.Do()
				}
				return st.Verdict
			}
			s.seen++
		}
	}
	if s.Next != nil {
		return s.Next.Judge(now, frameLen)
	}
	return Verdict{}
}

// Coin is the biased-coin FaultInjector of the loss sweeps: a frame is
// dropped with probability DropProb, a surviving one corrupted with
// probability CorruptProb. Rand must be the RNG of the engine that owns
// the direction (the sending side), so a run replays from its seed; a
// zero probability draws nothing.
type Coin struct {
	Rand        *rand.Rand
	DropProb    float64
	CorruptProb float64
}

// Judge implements FaultInjector.
func (c Coin) Judge(sim.Time, int) Verdict {
	if c.DropProb > 0 && c.Rand.Float64() < c.DropProb {
		return Verdict{Drop: true}
	}
	return Verdict{Corrupt: c.CorruptProb > 0 && c.Rand.Float64() < c.CorruptProb}
}
