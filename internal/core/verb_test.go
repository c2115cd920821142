package core

import (
	"errors"
	"testing"

	"strom/internal/fabric"
	"strom/internal/roce"
	"strom/internal/sim"
)

// verbCase is one of the four ops as a Verb and as its plain method.
type verbCase struct {
	name  string
	verb  func(r *rig) Verb
	plain func(r *rig, done func(error))
	keyed bool // the op carries an rkey
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
		}, true},
		{"read", func(r *rig) Verb {
			return Verb{Op: OpRead, LocalVA: uint64(r.bufA.Base()), RemoteVA: uint64(r.bufB.Base()), Len: 3000}
		}, func(r *rig, done func(error)) {
			r.a.PostRead(1, uint64(r.bufB.Base()), uint64(r.bufA.Base()), 3000, done)
		}, true},
		{"rpc", func(r *rig) Verb {
			return Verb{Op: OpRPC, RPCOp: verbEchoOp, Params: echoParams(uint64(r.bufB.Base()), 64, uint64(r.bufA.Base()))}
		}, func(r *rig, done func(error)) {
			r.a.PostRPC(1, verbEchoOp, echoParams(uint64(r.bufB.Base()), 64, uint64(r.bufA.Base())), done)
		}, false},
		{"rpc-write", func(r *rig) Verb {
			return Verb{Op: OpRPCWrite, RPCOp: verbCountOp, LocalVA: uint64(r.bufA.Base()), Len: 3000}
		}, func(r *rig, done func(error)) {
			r.a.PostRPCWrite(1, verbCountOp, uint64(r.bufA.Base()), 3000, done)
		}, false},
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

// A deadline fires exactly once wherever the verb is stuck: behind a
// stalled doorbell, where the stack has not seen it yet and only the
// NIC's own guard can fire, and on the wire, where the ACK never comes
// and the stack's deadline event fires too and is swallowed.
func TestVerbDeadline(t *testing.T) {
	const deadline = sim.Time(50 * sim.Microsecond)
	for _, tc := range verbCases() {
		t.Run(tc.name+"/doorbell-stalled", func(t *testing.T) {
			cfg := Profile10G()
			cfg.Host.DoorbellInterval = sim.Millisecond
			r := verbRig(t, cfg)
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
			if c.posted != 0 {
				t.Errorf("the stack had accepted %d verbs at the deadline: not the NIC-level guard that fired", c.posted)
			}
		})
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
