package core_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"strom/internal/core"
	"strom/internal/cpu"
	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
	"strom/internal/raceflag"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// kernelBed is a warmable pair for the kernel-call allocation guards:
// the traversal and consistency kernels deployed on B over a hash table
// holding key and a checksummed object, and the parameter blocks of one
// lookup and one read answered into A's buffer.
type kernelBed struct {
	p          *testrig.Pair
	trav       *traversal.Kernel
	cons       *consistency.Kernel
	travParams traversal.Params
	consParams consistency.Params
}

const (
	travOp, consOp     = 0x01, 0x03
	valueSize, objSize = 256, 1024
)

func newKernelBed(t *testing.T) *kernelBed {
	t.Helper()
	p, err := testrig.New10G(1)
	if err != nil {
		t.Fatal(err)
	}
	trav, cons := traversal.New(0), consistency.New(0)
	if err := p.B.DeployKernel(travOp, trav); err != nil {
		t.Fatal(err)
	}
	if err := p.B.DeployKernel(consOp, cons); err != nil {
		t.Fatal(err)
	}
	region := kvstore.NewRegion(p.B.Memory(), p.BufB)
	ht, err := kvstore.BuildHashTable(region, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const key = 42
	if err := ht.Put(key, make([]byte, valueSize)); err != nil {
		t.Fatal(err)
	}
	objVA, err := region.Alloc(objSize)
	if err != nil {
		t.Fatal(err)
	}
	obj := make([]byte, objSize)
	cpu.StampCRC64(obj)
	if err := p.B.Memory().WriteVirt(objVA, obj); err != nil {
		t.Fatal(err)
	}
	return &kernelBed{p: p, trav: trav, cons: cons,
		travParams: ht.TraversalParams(key, valueSize, p.BufA.Base()),
		consParams: consistency.Params{
			ObjectAddress: uint64(objVA), ObjectSize: objSize, ResponseAddress: uint64(p.BufA.Base() + 4096),
		},
	}
}

// TestAllocsKernelInvoke pins what a warm kernel invocation allocates on
// the serving NIC: nothing. The parameter block waits out the kernel
// pipeline in a pooled buffer, and the traversal lookup and consistency
// read run from recycled records whose DMA callbacks are bound once and
// answer from kernel-owned response buffers. The client side here is a
// bare Post of a block encoded once before the loop; what a client's
// whole kernel call allocates is TestAllocsKernelClient's.
func TestAllocsKernelInvoke(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	bed := newKernelBed(t)
	p, trav, cons := bed.p, bed.trav, bed.cons
	travResp, consResp := bed.travParams.ResponseAddress, bed.consParams.ResponseAddress
	lookup := core.Verb{Op: core.OpRPC, RPCOp: travOp, Params: bed.travParams.Encode()}
	read := core.Verb{Op: core.OpRPC, RPCOp: consOp, Params: bed.consParams.Encode()}
	var failed error
	done := func(err error) { failed = errors.Join(failed, err) }
	post := func() {
		p.A.Post(testrig.QPA, lookup, done)
		p.A.Post(testrig.QPA, read, done)
	}
	step := func() {
		p.Eng.Schedule(0, post)
		p.Run()
	}
	for i := 0; i < 200; i++ { // free lists, event heaps and frame pool at size
		step()
	}
	if n := testing.AllocsPerRun(500, step); n > 0 {
		t.Errorf("a traversal lookup and a consistency read allocate %.2f objects, want 0", n)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	for _, c := range []struct {
		name string
		va   uint64
		want uint64
	}{
		{"traversal", travResp + valueSize, traversal.StatusFound},
		{"consistency", consResp + objSize, consistency.StatusOK},
	} {
		raw, err := p.A.Memory().ReadVirt(hostmem.Addr(c.va), 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(raw); got != c.want {
			t.Errorf("%s status = %d, want %d", c.name, got, c.want)
		}
	}
	if st := trav.Stats(); st.Invocations != 701 || st.Found != 701 {
		t.Errorf("traversal stats %+v, want 701 lookups found (AllocsPerRun adds a warm-up run)", st)
	}
	if st := cons.Stats(); st.Invocations != 701 || st.Failures != 0 {
		t.Errorf("consistency stats %+v, want 701 clean reads", st)
	}
}

// TestAllocsKernelClient pins what the requester's half of a warm kernel
// call allocates: the value it serves and nothing else. Post reads an
// RPC's parameter block and keeps none of it, so a block encoded inline
// stays on its caller's stack, and status words are polled as words.
func TestAllocsKernelClient(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	bed := newKernelBed(t)
	p, mem, host := bed.p, bed.p.A.Memory(), bed.p.A.Host()
	word := p.BufA.Base() + 8192
	set, unset := []byte{1, 0, 0, 0, 0, 0, 0, 1}, make([]byte, 8)
	complete := func() {
		if err := mem.WriteVirt(word, set); err != nil {
			t.Error(err)
		}
	}
	// arm clears the word and sets it 2 µs on, after the poll has parked.
	arm := func() {
		if err := mem.WriteVirt(word, unset); err != nil {
			t.Error(err)
		}
		p.Eng.Schedule(2*sim.Microsecond, complete)
	}
	var failed error
	done := func(err error) { failed = errors.Join(failed, err) }
	for _, tc := range []struct {
		name string
		op   func(*sim.Process) error
		want float64
	}{
		{"traversal.Lookup", func(proc *sim.Process) error {
			_, err := traversal.Lookup(proc, p.A, testrig.QPA, travOp, bed.travParams)
			return err
		}, 1},
		{"consistency.Read", func(proc *sim.Process) error {
			_, err := consistency.Read(proc, p.A, testrig.QPA, consOp, bed.consParams)
			return err
		}, 1},
		{"Model.PollWord", func(proc *sim.Process) error {
			arm()
			_, err := host.PollWord(proc, mem, word, func(w uint64) bool { return w != 0 }, 0)
			return err
		}, 0},
		{"Model.PollNonZero", func(proc *sim.Process) error {
			arm()
			return host.PollNonZero(proc, mem, word, 0)
		}, 0},
		{"NIC.Post", func(*sim.Process) error {
			c := bed.consParams
			p.A.Post(testrig.QPA, core.Verb{Op: core.OpRPC, RPCOp: consOp, Params: consistency.Params{
				ObjectAddress: c.ObjectAddress, ObjectSize: c.ObjectSize, ResponseAddress: c.ResponseAddress,
			}.Encode()}, done)
			return nil
		}, 0},
	} {
		step := clientLoop(t, p, tc.op)
		for i := 0; i < 200; i++ { // free lists, event heaps and frame pool at size
			step()
		}
		if n := testing.AllocsPerRun(500, step); n != tc.want {
			t.Errorf("%s allocates %.2f objects, want %.0f", tc.name, n, tc.want)
		}
	}
	if failed != nil {
		t.Fatal(failed)
	}
	// 701 calls per case: AllocsPerRun adds a warm-up run.
	if st := bed.trav.Stats(); st.Invocations != 701 || st.Found != 701 {
		t.Errorf("traversal stats %+v, want 701 lookups found", st)
	}
	if st := bed.cons.Stats(); st.Invocations != 2*701 || st.Failures != 0 {
		t.Errorf("consistency stats %+v, want %d clean reads", st, 2*701)
	}
}

// clientLoop runs op from a process on machine A, once per step call, so
// a caller outside the simulation can meter single kernel calls.
func clientLoop(t *testing.T, p *testrig.Pair, op func(*sim.Process) error) (step func()) {
	stop := false
	client := p.Eng.Go("client", func(proc *sim.Process) {
		for {
			proc.ParkUntil(0) // until step wakes it
			if stop {
				return
			}
			if err := op(proc); err != nil {
				t.Error(err)
			}
		}
	})
	p.Run()
	step = func() {
		client.WakeBy(p.Eng.Now())
		p.Run()
	}
	t.Cleanup(func() {
		stop = true
		step()
	})
	return step
}
