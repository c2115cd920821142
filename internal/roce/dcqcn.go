package roce

import (
	"strom/internal/packet"
	"strom/internal/sim"
)

// DCQCNConfig parameterizes the DCQCN congestion-control loop (Zhu et
// al., SIGCOMM'15), the algorithm deployed with RoCE v2: switches
// CE-mark at an ECN threshold, the notification point (NP, the
// receiver) reflects marks back as CNPs, and the reaction point (RP,
// the sender) keeps per-QP rate state — multiplicative decrease on CNP,
// timer-driven fast recovery plus additive increase afterwards.
type DCQCNConfig struct {
	// MinRateGbps floors the per-QP rate so a flow never stops entirely.
	MinRateGbps float64
	// Gain is g, the EWMA gain of the congestion estimate alpha.
	Gain float64
	// AIRateGbps is the additive increase applied to the target rate
	// per recovery period once fast recovery completes.
	AIRateGbps float64
	// FastRecovery is the number of recovery periods that halve the gap
	// to the target rate before additive increase starts.
	FastRecovery int
	// RateTimer is the recovery period: each period decays alpha and
	// moves the rate halfway back to the target.
	RateTimer sim.Duration
	// CNPInterval is the NP-side minimum gap between CNPs per QP.
	CNPInterval sim.Duration
}

// DefaultDCQCN returns the tuning used by the incast experiments.
func DefaultDCQCN() DCQCNConfig {
	return DCQCNConfig{
		MinRateGbps:  0.1,
		Gain:         1.0 / 16,
		AIRateGbps:   0.5,
		FastRecovery: 3,
		RateTimer:    20 * sim.Microsecond,
		CNPInterval:  10 * sim.Microsecond,
	}
}

// withDefaults fills zero fields from DefaultDCQCN.
func (c DCQCNConfig) withDefaults() DCQCNConfig {
	d := DefaultDCQCN()
	if c.MinRateGbps <= 0 {
		c.MinRateGbps = d.MinRateGbps
	}
	if c.Gain <= 0 || c.Gain > 1 {
		c.Gain = d.Gain
	}
	if c.AIRateGbps <= 0 {
		c.AIRateGbps = d.AIRateGbps
	}
	if c.FastRecovery <= 0 {
		c.FastRecovery = d.FastRecovery
	}
	if c.RateTimer <= 0 {
		c.RateTimer = d.RateTimer
	}
	if c.CNPInterval <= 0 {
		c.CNPInterval = d.CNPInterval
	}
	return c
}

// dcqcnControl is the per-stack half: configuration plus the line rate.
type dcqcnControl struct {
	cfg  DCQCNConfig
	line float64
}

// dcqcnQP is the per-QP rate state, lazily attached to qpState.
type dcqcnQP struct {
	// RP (sender) state.
	rate     float64 // current sending rate (Gbps)
	target   float64 // target rate for recovery
	alpha    float64 // congestion estimate
	stage    int     // recovery periods since the last cut
	nextSend sim.Time
	timer    sim.Event

	// NP (receiver) state.
	cnpSent   bool
	lastCNPAt sim.Time
}

// EnableDCQCN turns the DCQCN reaction/notification point on for this
// stack. Off (the default) the stack is byte-identical to the
// pre-DCQCN behaviour: no pacing, no CNPs, no extra events.
func (s *Stack) EnableDCQCN(cfg DCQCNConfig) {
	s.cc = &dcqcnControl{cfg: cfg.withDefaults(), line: s.cfg.LineRateGbps}
}

// ccState returns (allocating on first use) the QP's DCQCN state.
func (s *Stack) ccState(st *qpState) *dcqcnQP {
	if st.cc == nil {
		st.cc = &dcqcnQP{rate: s.cc.line, target: s.cc.line, alpha: 1}
	}
	return st.cc
}

// paceFrame applies the RP rate limit to a requester frame about to
// enter the TX pipeline. It returns the time the frame may start (never
// before now); the per-QP nextSend credit advances by the frame's wire
// time at the QP's current rate, so a throttled QP spaces its frames
// out while an unthrottled one sends back to back.
func (s *Stack) paceFrame(st *qpState, frameLen int) sim.Time {
	q := s.ccState(st)
	now := s.eng.Now()
	start := now
	if q.nextSend > start {
		start = q.nextSend
	}
	q.nextSend = start.Add(sim.BytesAt(frameLen+packet.EthFramingOverhead, q.rate))
	return start
}

// handleCNP is the RP reaction to one congestion notification:
// multiplicative decrease scaled by the congestion estimate, then a
// recovery timer that decays alpha and climbs back (fast recovery, then
// additive increase).
func (s *Stack) handleCNP(qpn uint32, st *qpState) {
	s.stats.CnpsReceived++
	if s.cc == nil {
		return
	}
	q := s.ccState(st)
	cfg := &s.cc.cfg
	q.alpha = (1-cfg.Gain)*q.alpha + cfg.Gain
	q.target = q.rate
	q.rate *= 1 - q.alpha/2
	if q.rate < cfg.MinRateGbps {
		q.rate = cfg.MinRateGbps
	}
	q.stage = 0
	s.logf("dcqcn", "qp=%d cnp: rate=%.2f target=%.2f alpha=%.3f", qpn, q.rate, q.target, q.alpha)
	if !q.timer.Pending() {
		// Daemon: recovery must not keep an otherwise-finished
		// simulation alive, and it self-cancels at line rate anyway.
		q.timer = s.eng.ScheduleDaemon(cfg.RateTimer, func() { s.dcqcnRecover(qpn, st) })
	}
}

// dcqcnRecover is one recovery period at the RP.
func (s *Stack) dcqcnRecover(qpn uint32, st *qpState) {
	q := st.cc
	cfg := &s.cc.cfg
	q.alpha *= 1 - cfg.Gain
	q.stage++
	if q.stage > cfg.FastRecovery {
		q.target += cfg.AIRateGbps
		if q.target > s.cc.line {
			q.target = s.cc.line
		}
	}
	q.rate = (q.rate + q.target) / 2
	if q.rate >= 0.999*s.cc.line {
		q.rate, q.target = s.cc.line, s.cc.line
		q.timer = sim.Event{}
		s.logf("dcqcn", "qp=%d recovered to line rate", qpn)
		return
	}
	q.timer = s.eng.ScheduleDaemon(cfg.RateTimer, func() { s.dcqcnRecover(qpn, st) })
}

// noteCongestion is the NP half: a CE-marked frame was delivered on
// this QP, so reflect a CNP to the sender unless one went out within
// the CNP interval.
func (s *Stack) noteCongestion(st *qpState) {
	if s.cc == nil {
		return
	}
	q := s.ccState(st)
	now := s.eng.Now()
	if q.cnpSent && now.Sub(q.lastCNPAt) < s.cc.cfg.CNPInterval {
		return
	}
	q.cnpSent = true
	q.lastCNPAt = now
	s.stats.CnpsSent++
	s.sendTransient(st, s.ackPkt.SetCNP(st.remoteQPN))
}
