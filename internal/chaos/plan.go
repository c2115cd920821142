// Package chaos is the fault-injection and protocol-checking layer of the
// simulated testbed. It composes the low-level hooks the DES components
// expose — fabric.FaultInjector for per-frame verdicts, pcie.StallFn for
// DMA stall windows, roce.Observer for protocol events — into a single
// declarative Plan: Gilbert–Elliott bursty loss, bit corruption, frame
// duplication, bounded reordering, scheduled link flaps and PCIe stall
// windows. Every random decision is drawn from the sim.Engine's RNG, so a
// chaos run is a pure function of (plan, seed): replaying the seed
// reproduces the identical fault schedule (see Injector.ScheduleDigest).
//
// The package also provides the protocol invariant Checker, a
// roce.Observer asserting transport correctness online while the faults
// fly: PSN contiguity, no re-execution of completed writes, retry
// budgets, bit-identical duplicate-READ servings, and verb-completion
// liveness.
package chaos

import (
	"sort"

	"strom/internal/sim"
)

// GilbertElliott is the classic two-state Markov loss model: the channel
// alternates between a good and a bad state with per-frame transition
// probabilities, and drops frames with a per-state loss probability.
// Unlike a Bernoulli coin it produces the bursty losses real RDMA
// deployments see (congestion episodes, shallow-buffer microbursts).
type GilbertElliott struct {
	// PGoodBad is the per-frame probability of entering the bad state.
	PGoodBad float64
	// PBadGood is the per-frame probability of leaving the bad state;
	// 1/PBadGood is the mean burst length in frames.
	PBadGood float64
	// LossGood and LossBad are the per-state drop probabilities.
	LossGood float64
	LossBad  float64
}

// enabled reports whether the model can ever drop a frame.
func (g GilbertElliott) enabled() bool {
	return g.LossGood > 0 || (g.LossBad > 0 && g.PGoodBad > 0)
}

// burstLossBad is the in-burst drop probability BurstyLoss assumes, and
// burstMeanLen the mean burst length in frames.
const (
	burstLossBad = 0.75
	burstMeanLen = 10.0
)

// BurstyLoss returns a Gilbert–Elliott model whose stationary loss rate
// is avg, concentrated in bursts of ~10 frames dropping 75% of traffic
// (the good state is clean). avg must be below burstLossBad; it is
// clamped otherwise.
func BurstyLoss(avg float64) GilbertElliott {
	if avg <= 0 {
		return GilbertElliott{}
	}
	if avg > burstLossBad*0.9 {
		avg = burstLossBad * 0.9
	}
	pBadGood := 1 / burstMeanLen
	piBad := avg / burstLossBad
	return GilbertElliott{
		PGoodBad: pBadGood * piBad / (1 - piBad),
		PBadGood: pBadGood,
		LossBad:  burstLossBad,
	}
}

// Window is a half-open interval [At, At+Dur) of simulated time.
type Window struct {
	At  sim.Time
	Dur sim.Duration
}

// End returns the first instant after the window.
func (w Window) End() sim.Time { return w.At.Add(w.Dur) }

// LinkFaults describes the per-frame fault mix of one link direction.
type LinkFaults struct {
	// Loss is the bursty drop model.
	Loss GilbertElliott
	// CorruptProb flips one random bit of the delivered frame (the ICRC
	// catches it and the Packet Dropper discards, §4.1).
	CorruptProb float64
	// DupProb delivers a second copy of the frame, DupDelay later —
	// exercising the duplicate-PSN region and the duplicate-READ cache.
	DupProb  float64
	DupDelay sim.Duration
	// ReorderProb delays the frame by a uniform draw from (0, ReorderMax],
	// letting later frames overtake it (go-back-N sees a gap, NAKs, then
	// the straggler arrives in the duplicate region).
	ReorderProb float64
	ReorderMax  sim.Duration
}

// enabled reports whether any fault can fire in this direction.
func (f LinkFaults) enabled() bool {
	return f.Loss.enabled() || f.CorruptProb > 0 || f.DupProb > 0 || f.ReorderProb > 0
}

// Plan is a declarative chaos schedule for the two-machine testbed.
// The zero value injects nothing.
type Plan struct {
	// AtoB and BtoA are the per-direction frame fault mixes.
	AtoB, BtoA LinkFaults
	// Flaps are link-down windows: every frame in either direction whose
	// send falls inside a window is dropped (a cable pull / port reset).
	Flaps []Window
	// StallsA and StallsB are PCIe stall windows on machine A's / B's DMA
	// engine: a DMA command completing inside a window is deferred to the
	// window's end (a root complex that stops returning completions).
	StallsA, StallsB []Window
}

// normalized returns the plan with windows sorted.
func (p Plan) normalized() Plan {
	sortWindows := func(ws []Window) []Window {
		out := append([]Window(nil), ws...)
		sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
		return out
	}
	p.Flaps = sortWindows(p.Flaps)
	p.StallsA = sortWindows(p.StallsA)
	p.StallsB = sortWindows(p.StallsB)
	return p
}
