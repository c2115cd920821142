package core

import (
	"errors"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
)

// verbCase is one of the four ops as a Verb and as its plain method.
type verbCase struct {
	name  string
	verb  func(r *rig) Verb
	plain func(r *rig, done func(error))
	keyed bool // the op carries an rkey
	dma   bool // the op's payload crosses PCIe before the stack sees it
}

const (
	verbEchoOp  = 0x10
	verbCountOp = 0x11
)

func verbCases() []verbCase {
	return []verbCase{
		{"write", func(r *rig) Verb {
			return Verb{Op: OpWrite, LocalVA: uint64(r.bufA.Base()), RemoteVA: uint64(r.bufB.Base()), Len: 3000}
		}, func(r *rig, done func(error)) {
			r.a.PostWrite(1, uint64(r.bufA.Base()), uint64(r.bufB.Base()), 3000, done)
		}, true, true},
		{"read", func(r *rig) Verb {
			return Verb{Op: OpRead, LocalVA: uint64(r.bufA.Base()), RemoteVA: uint64(r.bufB.Base()), Len: 3000}
		}, func(r *rig, done func(error)) {
			r.a.PostRead(1, uint64(r.bufB.Base()), uint64(r.bufA.Base()), 3000, done)
		}, true, false},
		{"rpc", func(r *rig) Verb {
			return Verb{Op: OpRPC, RPCOp: verbEchoOp, Params: echoParams(uint64(r.bufB.Base()), 64, uint64(r.bufA.Base()))}
		}, func(r *rig, done func(error)) {
			r.a.PostRPC(1, verbEchoOp, echoParams(uint64(r.bufB.Base()), 64, uint64(r.bufA.Base())), done)
		}, false, false},
		{"rpc-write", func(r *rig) Verb {
			return Verb{Op: OpRPCWrite, RPCOp: verbCountOp, LocalVA: uint64(r.bufA.Base()), Len: 3000}
		}, func(r *rig, done func(error)) {
			r.a.PostRPCWrite(1, verbCountOp, uint64(r.bufA.Base()), 3000, done)
		}, false, true},
	}
}

// verbRig is newRig with the two kernels the RPC ops address.
func verbRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := newRig(t, 1, cfg, fabric.DirectCable10G())
	if err := r.b.DeployKernel(verbEchoOp, &echoKernel{}); err != nil {
		t.Fatal(err)
	}
	if err := r.b.DeployKernel(verbCountOp, &countKernel{target: uint64(r.bufA.Base()) + 4096}); err != nil {
		t.Fatal(err)
	}
	return r
}

// completion is what one verb's done callback saw.
type completion struct {
	n      int
	err    error
	at     sim.Time
	posted uint64 // verbs the stack had accepted by then
}

func (c *completion) done(r *rig) func(error) {
	return func(err error) {
		c.n++
		c.err, c.at, c.posted = err, r.eng.Now(), r.a.Stack().Stats().OpsPosted
	}
}

// The Verb with zero RKey and Deadline is the plain method: same
// completion time, same transport counters on both ends, same number of
// engine events.
func TestVerbEqualsPlainMethod(t *testing.T) {
	for _, tc := range verbCases() {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				c     completion
				a, b  roce.Stats
				fired uint64
			}
			run := func(post func(r *rig, done func(error))) outcome {
				r := verbRig(t, Profile10G())
				var o outcome
				r.eng.Schedule(0, func() { post(r, o.c.done(r)) })
				r.eng.Run()
				o.a, o.b, o.fired = r.a.Stack().Stats(), r.b.Stack().Stats(), r.eng.Fired()
				return o
			}
			plain := run(tc.plain)
			verb := run(func(r *rig, done func(error)) { r.a.Post(1, tc.verb(r), done) })
			if plain.c.n != 1 || plain.c.err != nil {
				t.Fatalf("plain method completed %d times, err %v", plain.c.n, plain.c.err)
			}
			if verb != plain {
				t.Errorf("Post(Verb) differs from the plain method:\n verb %+v\nplain %+v", verb, plain)
			}
		})
	}
}

// acceptWatch is a stack observer that runs check in an event of its own
// at the instant the stack accepts a verb, right after the post that
// accepted it has returned.
type acceptWatch struct {
	eng   *sim.Engine
	check func()
}

func (w *acceptWatch) PostedOp(uint32, uint64, string)                     { w.eng.Schedule(0, w.check) }
func (*acceptWatch) CompletedOp(uint32, uint64, error)                     {}
func (*acceptWatch) TxRequest(uint32, uint32, uint32, packet.Opcode, bool) {}
func (*acceptWatch) RespExec(uint32, uint32, uint32, packet.Opcode, bool)  {}
func (*acceptWatch) RespReadData(uint32, uint32, uint64, int)              {}
func (*acceptWatch) Timeout(uint32, int, int)                              {}
func (*acceptWatch) QPStateChange(uint32, roce.QPState, error)             {}

// A deadline fires exactly once wherever the verb is stuck: behind a
// stalled doorbell, or a stalled DMA read of a WRITE's payload, where
// the stack has not seen it yet when the NIC's guard fires, and on the
// wire, where the ACK never comes. A verb the guard fired for before the
// stack accepted it is expired by the time the post returns.
func TestVerbDeadline(t *testing.T) {
	const deadline = sim.Time(50 * sim.Microsecond)
	stalled := func(t *testing.T, tc verbCase, cfg Config, stall func(r *rig)) {
		r := verbRig(t, cfg)
		stall(r)
		var c completion
		accepted := false
		r.a.Stack().SetObserver(&acceptWatch{eng: r.eng, check: func() {
			accepted = true
			st := r.a.Stack().Stats()
			if st.DeadlineExpired != 1 || st.OpsCompleted != st.OpsPosted {
				t.Errorf("as the stack accepted the verb: %d deadlines expired, %d of %d verbs completed; want it expired at once",
					st.DeadlineExpired, st.OpsCompleted, st.OpsPosted)
			}
		}})
		r.eng.Schedule(0, func() {
			v := tc.verb(r)
			v.Deadline = deadline
			r.a.Post(1, v, c.done(r))
		})
		r.eng.Run()
		if c.n != 1 || !errors.Is(c.err, sim.ErrDeadlineExceeded) || c.at != deadline {
			t.Fatalf("completed %d times, at %v with %v; want once, at %v, with ErrDeadlineExceeded", c.n, c.at, c.err, deadline)
		}
		if c.posted != 0 {
			t.Errorf("the stack had accepted %d verbs at the deadline: not a stalled verb", c.posted)
		}
		if !accepted {
			t.Error("the stack never accepted the verb")
		}
	}
	for _, tc := range verbCases() {
		t.Run(tc.name+"/doorbell-stalled", func(t *testing.T) {
			cfg := Profile10G()
			cfg.Host.DoorbellInterval = sim.Millisecond
			stalled(t, tc, cfg, func(*rig) {})
		})
		if tc.dma {
			t.Run(tc.name+"/dma-stalled", func(t *testing.T) {
				stalled(t, tc, Profile10G(), func(r *rig) {
					r.a.DMA().SetStall(func(now sim.Time) sim.Duration {
						if now < deadline {
							return sim.Duration(2 * deadline)
						}
						return 0
					})
				})
			})
		}
		t.Run(tc.name+"/no-ack", func(t *testing.T) {
			r := verbRig(t, Profile10G())
			r.link.SetOfflineAtoB(true)
			var c completion
			r.eng.Schedule(0, func() {
				v := tc.verb(r)
				v.Deadline = deadline
				r.a.Post(1, v, c.done(r))
			})
			r.eng.Run()
			if c.n != 1 || !errors.Is(c.err, sim.ErrDeadlineExceeded) || c.at != deadline {
				t.Fatalf("completed %d times, at %v with %v; want once, at %v, with ErrDeadlineExceeded", c.n, c.at, c.err, deadline)
			}
			if st := r.a.Stack().Stats(); c.posted != 1 || st.DeadlineExpired != 1 {
				t.Errorf("stack: %d verbs posted, %d deadlines expired; want 1 and 1", c.posted, st.DeadlineExpired)
			}
		})
	}
}

// The NIC's guard is a verb's only timer: a post with a deadline books
// exactly one event more than the same post without one, whether the
// verb is still with the NIC or already with the stack.
func TestVerbDeadlineBooksOneTimer(t *testing.T) {
	for _, tc := range verbCases() {
		t.Run(tc.name, func(t *testing.T) {
			pending := func(deadline sim.Time) (withNIC, withStack int) {
				r := verbRig(t, Profile10G())
				r.link.SetOfflineAtoB(true) // the verb stays outstanding
				r.eng.Schedule(0, func() {
					v := tc.verb(r)
					v.Deadline = deadline
					r.a.Post(1, v, nil)
					withNIC = r.eng.Pending()
				})
				r.eng.RunUntil(sim.Time(20 * sim.Microsecond))
				if r.a.Stack().Stats().OpsPosted != 1 {
					t.Fatal("the stack has not accepted the verb after 20 us")
				}
				return withNIC, r.eng.Pending()
			}
			nicBare, stackBare := pending(0)
			nicDL, stackDL := pending(sim.Time(sim.Millisecond))
			if d := nicDL - nicBare; d != 1 {
				t.Errorf("at the doorbell a deadline adds %d pending events, want 1", d)
			}
			if d := stackDL - stackBare; d != 1 {
				t.Errorf("with the stack a deadline adds %d pending events, want 1", d)
			}
		})
	}
}

// A verb that completes in time cancels its one timer: the deadline
// never counts as expired and does not hold the engine open.
func TestDeadlineCanceledOnSuccess(t *testing.T) {
	for _, tc := range verbCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := verbRig(t, Profile10G())
			var c completion
			r.eng.Schedule(0, func() {
				v := tc.verb(r)
				v.Deadline = sim.Time(sim.Second)
				r.a.Post(1, v, c.done(r))
			})
			end := r.eng.Run()
			if c.n != 1 || c.err != nil {
				t.Fatalf("completed %d times, err %v", c.n, c.err)
			}
			if st := r.a.Stack().Stats(); st.DeadlineExpired != 0 {
				t.Errorf("DeadlineExpired = %d", st.DeadlineExpired)
			}
			if sim.Duration(end) > 100*sim.Millisecond {
				t.Errorf("engine drained at %v: the deadline was not cancelled", end)
			}
		})
	}
}

// An explicit RKey overrides the QP's SetRemoteRKey key; a zero one
// falls back to it.
func TestVerbRKeyOverridesQPKey(t *testing.T) {
	for _, tc := range verbCases() {
		if !tc.keyed {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			r := verbRig(t, Profile10G())
			good := r.b.RegionFor(uint64(r.bufB.Base())).RKey()
			if err := r.a.SetRemoteRKey(1, good+1); err != nil { // the QP's key is wrong
				t.Fatal(err)
			}
			var keyed, bare completion
			r.eng.Schedule(0, func() {
				v := tc.verb(r)
				v.RKey = good
				r.a.Post(1, v, keyed.done(r))
			})
			r.eng.Schedule(100*sim.Microsecond, func() { r.a.Post(1, tc.verb(r), bare.done(r)) })
			r.eng.Run()
			if keyed.n != 1 || keyed.err != nil {
				t.Errorf("verb with the region's own rkey: completed %d times, err %v", keyed.n, keyed.err)
			}
			if bare.n != 1 || !errors.Is(bare.err, roce.ErrRemoteAccess) {
				t.Errorf("verb with no rkey: completed %d times, err %v; want the QP's wrong key NAK'd with ErrRemoteAccess", bare.n, bare.err)
			}
		})
	}
}

// An Op that is none of the four completes with a typed error.
func TestVerbUnknownOp(t *testing.T) {
	r := verbRig(t, Profile10G())
	for _, v := range []Verb{{}, {Op: 99, Len: 64}} {
		var c completion
		r.a.Post(1, v, c.done(r))
		if c.n != 1 || !errors.Is(c.err, ErrUnknownOp) {
			t.Errorf("Post(%+v): completed %d times with %v, want once with ErrUnknownOp", v, c.n, c.err)
		}
		var err error
		r.eng.Go("caller", func(p *sim.Process) { err = r.a.Do(p, 1, v) })
		r.eng.Run()
		if !errors.Is(err, ErrUnknownOp) {
			t.Errorf("Do(%+v) = %v, want ErrUnknownOp", v, err)
		}
	}
	if d := r.a.Stats().Doorbells; d != 0 {
		t.Errorf("%d doorbells rung for verbs that are none", d)
	}
}
