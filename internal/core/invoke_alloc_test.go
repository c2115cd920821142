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
	"strom/internal/testrig"
)

// TestAllocsKernelInvoke pins what a warm kernel invocation allocates on
// the serving NIC: nothing. The parameter block waits out the kernel
// pipeline in a pooled buffer, and the traversal lookup and consistency
// read run from recycled records whose DMA callbacks are bound once and
// answer from kernel-owned response buffers. The client side is a bare
// RPC verb with a pre-encoded parameter block, which allocates nothing
// either (TestAllocsVerbLifecycle), so the whole run must read 0.
func TestAllocsKernelInvoke(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	const travOp, consOp = 0x01, 0x03
	const valueSize, objSize = 256, 1024
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
	travResp, consResp := p.BufA.Base(), p.BufA.Base()+4096
	lookup := core.Verb{Op: core.OpRPC, RPCOp: travOp, Params: ht.TraversalParams(key, valueSize, travResp).Encode()}
	read := core.Verb{Op: core.OpRPC, RPCOp: consOp, Params: consistency.Params{
		ObjectAddress: uint64(objVA), ObjectSize: objSize, ResponseAddress: uint64(consResp),
	}.Encode()}
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
		{"traversal", uint64(travResp) + valueSize, traversal.StatusFound},
		{"consistency", uint64(consResp) + objSize, consistency.StatusOK},
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
