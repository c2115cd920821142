package strom_test

import (
	"errors"
	"testing"

	"strom"
)

// The public protection surface end to end: scoped regions, the rkey
// exchange, permission NAKs, key rotation across a restart, and
// revocation by deregistration.
func TestMemoryProtectionPublicAPI(t *testing.T) {
	cl := strom.NewCluster(21)
	a, err := cl.AddMachine("client", strom.Profile10G())
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.AddMachine("server", strom.Profile10G())
	if err != nil {
		t.Fatal(err)
	}
	qp, err := cl.ConnectDirect(a, b, strom.Cable10G())
	if err != nil {
		t.Fatal(err)
	}
	bufA, err := a.AllocBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rwBuf, err := b.AllocBufferFlags(1<<20, strom.AccessRemoteRead|strom.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	roBuf, err := b.AllocBufferFlags(1<<20, strom.AccessRemoteRead)
	if err != nil {
		t.Fatal(err)
	}

	reconnect := func(p *strom.Process) {
		for qp.Reconnect() != nil {
			p.Sleep(100 * strom.Microsecond)
		}
	}
	deadline := func(p *strom.Process) strom.Time { return p.Now().Add(2 * strom.Millisecond) }

	cl.Go("app", func(p *strom.Process) {
		localVA := uint64(bufA.Base())
		rwVA, roVA := uint64(rwBuf.Base()), uint64(roBuf.Base())

		// Exchange the read-write region's key and write through it.
		if err := qp.SetRemoteKey(b.RegionFor(rwBuf).RKey()); err != nil {
			t.Error(err)
			return
		}
		if err := qp.Do(p, strom.Verb{Op: strom.OpWrite, LocalVA: localVA, RemoteVA: rwVA, Len: 64, Deadline: deadline(p)}); err != nil {
			t.Errorf("write with exchanged key: %v", err)
			return
		}

		// A WRITE to the read-only region is NAK'd even with its valid
		// key: the key proves identity, not rights it never had.
		err := qp.Do(p, strom.Verb{Op: strom.OpWrite, LocalVA: localVA, RemoteVA: roVA, Len: 64, RKey: b.RegionFor(roBuf).RKey(), Deadline: deadline(p)})
		if !errors.Is(err, strom.ErrRemoteAccess) || !errors.Is(err, strom.ErrQPError) {
			t.Errorf("write to read-only region: got %v, want ErrRemoteAccess in ErrQPError", err)
			return
		}
		reconnect(p)

		// READing it with the same key is fine.
		if err := qp.Do(p, strom.Verb{Op: strom.OpRead, RemoteVA: roVA, LocalVA: localVA, Len: 64, RKey: b.RegionFor(roBuf).RKey(), Deadline: deadline(p)}); err != nil {
			t.Errorf("read from read-only region: %v", err)
			return
		}

		// A restart rotates every key: the old key goes stale...
		stale := b.RegionFor(rwBuf).RKey()
		b.Crash()
		p.Sleep(100 * strom.Microsecond)
		b.Restart()
		reconnect(p)
		err = qp.Do(p, strom.Verb{Op: strom.OpWrite, LocalVA: localVA, RemoteVA: rwVA, Len: 64, RKey: stale, Deadline: deadline(p)})
		if !errors.Is(err, strom.ErrRemoteAccess) {
			t.Errorf("write with pre-restart key: got %v, want ErrRemoteAccess", err)
			return
		}
		reconnect(p)

		// ...and re-fetching it restores access.
		if fresh := b.RegionFor(rwBuf).RKey(); fresh == stale {
			t.Errorf("restart did not rotate the rkey")
		} else if err := qp.Do(p, strom.Verb{Op: strom.OpWrite, LocalVA: localVA, RemoteVA: rwVA, Len: 64, RKey: fresh, Deadline: deadline(p)}); err != nil {
			t.Errorf("write with re-fetched key: %v", err)
			return
		}

		// Deregistration revokes everything, wildcard included.
		if err := b.DeregisterMemory(rwBuf); err != nil {
			t.Error(err)
			return
		}
		err = qp.Do(p, strom.Verb{Op: strom.OpWrite, LocalVA: localVA, RemoteVA: rwVA, Len: 64, Deadline: deadline(p)})
		if !errors.Is(err, strom.ErrRemoteAccess) {
			t.Errorf("write to deregistered region: got %v, want ErrRemoteAccess", err)
		}
	})
	cl.Run()
}
