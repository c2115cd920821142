package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"strom/internal/fabric"
	"strom/internal/raceflag"
	"strom/internal/roce"
	"strom/internal/sim"
)

// TestAllocsVerbLifecycle pins what a verb allocates between its doorbell
// and its completion, on a warm pair: nothing. The NIC's verb record, the
// payload fetch, the transport's message, pending entry, Multi-Queue
// element and deadline all come from free lists, every callback they
// hand out is bound once, and the request frame the transport retains
// for retransmission comes from the frame pool.
func TestAllocsVerbLifecycle(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	a, b := uint64(r.bufA.Base()), uint64(r.bufB.Base())
	var failed error
	done := func(err error) { failed = errors.Join(failed, err) }
	for _, tc := range []struct {
		name     string
		v        Verb
		deadline bool
	}{
		{"WRITE", Verb{Op: OpWrite, LocalVA: a, RemoteVA: b, Len: 64}, false},
		{"WRITE+deadline", Verb{Op: OpWrite, LocalVA: a, RemoteVA: b, Len: 64}, true},
		{"READ", Verb{Op: OpRead, LocalVA: a, RemoteVA: b, Len: 64}, false},
		{"READ+deadline", Verb{Op: OpRead, LocalVA: a, RemoteVA: b, Len: 64}, true},
	} {
		step := func() {
			v := tc.v
			if tc.deadline {
				v.Deadline = r.eng.Now().Add(sim.Millisecond)
			}
			r.a.Post(1, v, done)
			r.eng.Run()
		}
		for i := 0; i < 200; i++ { // free lists, event heap and frame pool at size
			step()
		}
		if n := testing.AllocsPerRun(500, step); n > 0 {
			t.Errorf("%s allocates %.2f objects, want 0", tc.name, n)
		}
	}
	if failed != nil {
		t.Fatal(failed)
	}
}

// post keeps every field of a Verb but Params, whose bytes it copies into
// the record's own buffer. The copy is field by field, so that a caller's
// parameter block may live on its stack; a field added to Verb later
// must not be dropped from it silently.
func TestPostCopiesEveryVerbField(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	var v Verb
	posted := reflect.ValueOf(&v).Elem()
	for i := 0; i < posted.NumField(); i++ {
		f, name := posted.Field(i), posted.Type().Field(i).Name
		switch {
		case name == "Op":
			f.SetUint(uint64(OpRPC)) // the op that copies Params
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Uint8:
			f.SetBytes([]byte{1, 2, 3})
		case f.CanUint():
			f.SetUint(uint64(1000 + i))
		case f.CanInt():
			f.SetInt(int64(1000 + i))
		default:
			t.Fatalf("Verb.%s: no test value for a %s", name, f.Type())
		}
	}
	rec := r.a.post(1, v, func(error) {}, false)
	kept := reflect.ValueOf(rec.v)
	for i := 0; i < posted.NumField(); i++ {
		if name := posted.Type().Field(i).Name; name != "Params" && !kept.Field(i).Equal(posted.Field(i)) {
			t.Errorf("the record holds Verb.%s = %v, posted %v", name, kept.Field(i), posted.Field(i))
		}
	}
	if rec.v.Params != nil {
		t.Error("the record keeps the caller's Params")
	}
	if !bytes.Equal(rec.params, v.Params) || &rec.params[0] == &v.Params[0] {
		t.Errorf("the record's params %v are not a copy of %v", rec.params, v.Params)
	}
}

// TestAllocsLongRunAtWindow pins a long run of the verbs-small workload's
// shape on the pair: 64 B WRITEs and READs alternating, 16 in flight, each
// completion posting the next. Over 10 000 warm ops it allocates less
// than one object per hundred: the QP's pending list keeps its array as
// acknowledgements retire its head (it used to shrink the array until
// append reallocated it every few ACKs).
func TestAllocsLongRunAtWindow(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	const window, ops = 16, 10_000
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	a, b := uint64(r.bufA.Base()), uint64(r.bufB.Base())
	var failed error
	posted, limit := 0, 0
	var done func(error)
	post := func() {
		op := OpWrite
		if posted%2 == 1 {
			op = OpRead
		}
		slot := uint64(posted%window) * 64
		posted++
		r.a.Post(1, Verb{Op: op, LocalVA: a + slot, RemoteVA: b + slot, Len: 64}, done)
	}
	done = func(err error) {
		if err != nil {
			failed = errors.Join(failed, err)
		}
		if posted < limit {
			post()
		}
	}
	burst := func(n int) {
		limit += n
		for k := 0; k < window; k++ {
			post()
		}
		r.eng.Run()
	}
	burst(1000) // free lists, event heap and frame pool at size
	allocs := testing.AllocsPerRun(1, func() { burst(ops) })
	if failed != nil {
		t.Fatal(failed)
	}
	if posted != 1000+2*ops {
		t.Fatalf("%d ops posted, want %d", posted, 1000+2*ops)
	}
	if per := allocs / ops; per >= 0.01 {
		t.Errorf("%d ops at window %d allocated %.0f objects, %.4f per op, want < 0.01", ops, window, allocs, per)
	}
}

// TestLateCompletionSparesRecycledVerb is the fire drill for recycling
// the NIC's verb records. A WRITE's deadline guard fires while its
// payload is still stalled in the DMA engine, and a second WRITE is
// posted. The first WRITE's transport completion arrives later still: it
// must find its own record, not complete the second WRITE.
func TestLateCompletionSparesRecycledVerb(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	stalls := []sim.Duration{20 * sim.Microsecond, 40 * sim.Microsecond}
	r.a.DMA().SetStall(func(sim.Time) sim.Duration {
		if len(stalls) == 0 {
			return 0
		}
		d := stalls[0]
		stalls = stalls[1:]
		return d
	})
	a, b := uint64(r.bufA.Base()), uint64(r.bufB.Base())
	var first, second []error
	r.eng.Schedule(0, func() {
		v := Verb{Op: OpWrite, LocalVA: a, RemoteVA: b, Len: 64, Deadline: r.eng.Now().Add(5 * sim.Microsecond)}
		r.a.Post(1, v, func(err error) { first = append(first, err) })
	})
	r.eng.Schedule(6*sim.Microsecond, func() {
		if len(first) != 1 || !errors.Is(first[0], sim.ErrDeadlineExceeded) {
			t.Fatalf("first WRITE: %v at 6 us, want its deadline", first)
		}
		v := Verb{Op: OpWrite, LocalVA: a, RemoteVA: b + 4096, Len: 64}
		r.a.Post(1, v, func(err error) { second = append(second, err) })
	})
	r.eng.Run()
	if len(first) != 1 {
		t.Errorf("first WRITE completed %d times: %v", len(first), first)
	}
	if len(second) != 1 || second[0] != nil {
		t.Errorf("second WRITE completed with %v, want once with nil", second)
	}
}

// TestFlushedReadLandingSparesNextRead is the fire drill for a READ's
// sink. A READ is flushed by a QP reset while three of its response
// chunks are still crossing PCIe (the DMA engine stalls their writes) and
// its last is lost; the next READ is posted at once. The stale chunks
// land after it: they must not touch the next READ's record.
func TestFlushedReadLandingSparesNextRead(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	mtu := r.a.Config().Roce.MTUPayload
	r.link.SetFaultsBtoA(fabric.DropFrame(3)) // the first READ's last response
	stall := true
	r.a.DMA().SetStall(func(sim.Time) sim.Duration {
		if stall {
			return 50 * sim.Microsecond
		}
		return 0
	})
	want := bytes.Repeat([]byte("next"), 16)
	if err := r.b.Memory().WriteVirt(r.bufB.Base()+1<<20, want); err != nil {
		t.Fatal(err)
	}
	a, b := uint64(r.bufA.Base()), uint64(r.bufB.Base())
	var first, second []error
	r.eng.Schedule(0, func() {
		r.a.Post(1, Verb{Op: OpRead, LocalVA: a, RemoteVA: b, Len: 4 * mtu}, func(err error) { first = append(first, err) })
	})
	r.eng.Schedule(20*sim.Microsecond, func() {
		if err := Reconnect(r.a, 1, r.b, 2); err != nil {
			t.Fatal(err)
		}
		stall = false
		v := Verb{Op: OpRead, LocalVA: a + 1<<20, RemoteVA: b + 1<<20, Len: len(want)}
		r.a.Post(1, v, func(err error) { second = append(second, err) })
	})
	r.eng.Run()
	if len(first) != 1 || !errors.Is(first[0], roce.ErrQPError) {
		t.Errorf("flushed READ completed with %v, want once with ErrQPError", first)
	}
	if len(second) != 1 || second[0] != nil {
		t.Fatalf("next READ completed with %v, want once with nil", second)
	}
	got, err := r.a.Memory().ReadVirt(r.bufA.Base()+1<<20, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the next READ's data did not land")
	}
}
