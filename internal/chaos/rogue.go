package chaos

import (
	"errors"
	"fmt"

	"strom/internal/core"
	"strom/internal/mr"
	"strom/internal/sim"
)

// Rogue is an adversarial requester: a machine that owns a perfectly
// healthy QP and uses it to forge memory-protection attacks against its
// peer — bad rkeys, stale keys, out-of-bounds lengths, writes to
// read-only regions, and unregistered addresses. Every forged request
// must come back SynNAKRemoteAccess (observed as roce.ErrRemoteAccess
// through the QP-error flush); a forged request that *completes* means
// the victim's NIC DMA'd hostile bytes, which the rogue counts as
// Unexpected and the sweep asserts to be zero.
//
// Each rejected request is transport-fatal for the rogue's QP, so the
// rogue reconnects (with backoff while the victim is down) between
// attacks — exactly the cadence a real attacker probing an RNIC would
// be forced into.
//
// All randomness (attack class order) comes from the engine RNG, so a
// rogue run is a deterministic function of the seed.
type Rogue struct {
	eng *sim.Engine
	nic *core.NIC
	cfg RogueConfig

	stats  RogueStats
	onDone func()
}

// RogueTarget is the attacker's knowledge of the victim: a read-write
// region (base/size), optionally a read-only region for permission
// attacks, and a way to obtain the currently valid rkey (which the rogue
// perturbs, never uses straight).
type RogueTarget struct {
	Base uint64 // victim read-write region base
	Size uint64 // victim read-write region size
	// Key returns the currently valid rkey for the read-write region.
	// Called per attack so key rotations (victim restarts) are tracked;
	// the forged key is always derived, never equal to it.
	Key func() uint32
	// ROBase/ROSize/ROKey describe a read-only region for permission
	// attacks; ROSize 0 disables the class (its attacks fall back to
	// bad_rkey forgeries).
	ROBase uint64
	ROSize uint64
	ROKey  func() uint32
}

// RogueConfig parameterises a rogue requester.
type RogueConfig struct {
	QPN     uint32      // the rogue's local QP
	LocalVA uint64      // registered scratch memory on the attacking machine
	Target  RogueTarget // what the rogue knows about the victim
	Ops     int         // forged requests to issue
	// OpDeadline bounds each forged request (relative); needed because a
	// crashed victim never NAKs. Zero defaults to 2 ms.
	OpDeadline sim.Duration
	// Backoff paces reconnect attempts after each rejected request. Zero
	// defaults to 100 µs.
	Backoff sim.Duration
	// MaxReconnects caps reconnect attempts per op before the rogue gives
	// up (victim permanently down). Zero defaults to 64.
	MaxReconnects int
	// Reconnect re-establishes the rogue's QP after a fatal NAK (e.g.
	// testrig.Pair.ReconnectPair). Required.
	Reconnect func() error
}

// RogueStats counts attack outcomes.
type RogueStats struct {
	Issued     [mr.NumClasses]uint64 // forged requests by violation class
	Rejected   uint64                // failed with a QP error (NAK'd — protection held)
	Expired    uint64                // deadline expired (victim down; no verdict)
	Unexpected uint64                // completed successfully — protection FAILED
	Reconnects uint64
	GaveUp     uint64 // ops abandoned after MaxReconnects
}

// Total returns the number of forged requests issued.
func (s RogueStats) Total() uint64 {
	var t uint64
	for _, n := range s.Issued {
		t += n
	}
	return t
}

// NewRogue builds a rogue requester on the attacking NIC. Start launches
// it; onDone fires when all configured ops have resolved.
func NewRogue(nic *core.NIC, cfg RogueConfig, onDone func()) (*Rogue, error) {
	if cfg.Reconnect == nil {
		return nil, errors.New("chaos: rogue needs a Reconnect hook")
	}
	if cfg.Target.Key == nil || cfg.Target.Size == 0 {
		return nil, errors.New("chaos: rogue needs a target region")
	}
	if cfg.OpDeadline == 0 {
		cfg.OpDeadline = 2 * sim.Millisecond
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 100 * sim.Microsecond
	}
	if cfg.MaxReconnects == 0 {
		cfg.MaxReconnects = 64
	}
	return &Rogue{eng: nic.Engine(), nic: nic, cfg: cfg, onDone: onDone}, nil
}

// Stats returns the attack outcome counters.
func (r *Rogue) Stats() RogueStats { return r.stats }

// Start launches the attack sequence.
func (r *Rogue) Start() { r.attack(r.cfg.Ops) }

// forge builds one attack of the given class: the forged (va, rkey,
// length) triple. Every class is constructed to trip exactly its own
// validation check.
func (r *Rogue) forge(class mr.Class) (va uint64, rkey uint32, n int) {
	t := &r.cfg.Target
	switch class {
	case mr.ClassBadRKey:
		// A slot far beyond any the victim ever allocated.
		return t.Base, 0xDEAD00, 64
	case mr.ClassStaleEpoch:
		// Right slot, wrong stamp — what a key captured before a restart
		// (or a guessed epoch) looks like.
		return t.Base, t.Key() ^ 0x01, 64
	case mr.ClassOutOfBounds:
		// Valid key, range running off the end of the region.
		return t.Base + t.Size - 64, t.Key(), 4096
	case mr.ClassPermission:
		if t.ROSize != 0 {
			// Valid key for a read-only region, used for a WRITE.
			return t.ROBase, t.ROKey(), 64
		}
		return t.Base, 0xBEEF00, 64 // falls back to bad_rkey forgery
	default: // mr.ClassUnregistered
		// Wildcard key into address space the victim never registered.
		return 1 << 40, 0, 64
	}
}

// attack issues one forged request, classifies the outcome, reconnects,
// and recurses until the op budget is spent.
func (r *Rogue) attack(left int) {
	if left <= 0 {
		if r.onDone != nil {
			r.onDone()
		}
		return
	}
	class := mr.Class(r.eng.Rand().Intn(int(mr.NumClasses)))
	va, rkey, n := r.forge(class)
	r.stats.Issued[class]++
	forged := core.Verb{Op: core.OpWrite, LocalVA: r.cfg.LocalVA, RemoteVA: va, Len: n, RKey: rkey, Deadline: r.eng.Now().Add(r.cfg.OpDeadline)}
	r.nic.Post(r.cfg.QPN, forged, func(err error) {
		switch {
		case err == nil:
			// The victim ACKed a forged request: its NIC issued the DMA.
			r.stats.Unexpected++
		case errors.Is(err, sim.ErrDeadlineExceeded):
			r.stats.Expired++
		default:
			// ErrRemoteAccess (wrapped in the QP-error flush) or any
			// other QP-fatal rejection: protection held.
			r.stats.Rejected++
		}
		// Reconnect from a fresh event, not from inside the completion
		// callback: the flush that delivered it is still mid-transition,
		// and a host reacting to a CQE is asynchronous anyway.
		r.eng.Schedule(0, func() { r.reconnect(left-1, 0) })
	})
}

// reconnect re-establishes the rogue QP (the NAK moved it to ERROR),
// backing off while the victim is down, then continues the attack.
func (r *Rogue) reconnect(left, attempts int) {
	if err := r.cfg.Reconnect(); err != nil {
		if attempts >= r.cfg.MaxReconnects {
			r.stats.GaveUp++
			if r.onDone != nil {
				r.onDone()
			}
			return
		}
		r.eng.Schedule(r.cfg.Backoff, func() { r.reconnect(left, attempts+1) })
		return
	}
	r.stats.Reconnects++
	r.eng.Schedule(r.cfg.Backoff, func() { r.attack(left) })
}

// String summarises the outcome counters.
func (s RogueStats) String() string {
	return fmt.Sprintf("issued=%d rejected=%d expired=%d unexpected=%d reconnects=%d",
		s.Total(), s.Rejected, s.Expired, s.Unexpected, s.Reconnects)
}
