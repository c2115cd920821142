package kvserve

import (
	"bytes"
	"errors"
	"testing"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/sim"
	"strom/internal/testrig"
)

func TestSlotCodec(t *testing.T) {
	val := ValueFor(7, 3)
	b, err := EncodeSlot(7, 3, val, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != SlotSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), SlotSize)
	}
	s := DecodeSlot(b)
	if s.Key != 7 || s.Ver != 3 || s.Tombstone() || !bytes.Equal(s.Val, val) {
		t.Fatalf("round trip = %+v", s)
	}
	tb, err := EncodeSlot(7, 4, nil, FlagTombstone)
	if err != nil {
		t.Fatal(err)
	}
	ts := DecodeSlot(tb)
	if !ts.Tombstone() || len(ts.Val) != 0 || ts.Ver != 4 {
		t.Fatalf("tombstone round trip = %+v", ts)
	}
	if _, err := EncodeSlot(1, 1, make([]byte, ValCap+1), 0); !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("oversized value: err = %v", err)
	}
}

func TestValueForDeterministic(t *testing.T) {
	for _, kv := range [][2]uint64{{1, 1}, {1, 2}, {99, 7}, {1 << 40, 12345}} {
		a, b := ValueFor(kv[0], kv[1]), ValueFor(kv[0], kv[1])
		if !bytes.Equal(a, b) {
			t.Fatalf("ValueFor(%d,%d) not deterministic", kv[0], kv[1])
		}
		if len(a) < 8 || len(a) > ValCap {
			t.Fatalf("ValueFor(%d,%d) = %d bytes", kv[0], kv[1], len(a))
		}
	}
	if bytes.Equal(ValueFor(1, 1), ValueFor(1, 2)) {
		t.Fatal("versions must produce distinct values")
	}
}

func TestLayoutPlacement(t *testing.T) {
	lay := Layout{Shards: 3, NumKeys: 64}
	for key := uint64(1); key <= lay.NumKeys; key++ {
		sh := lay.ShardOf(key)
		p, b := lay.PrimaryServer(sh), lay.BackupServer(sh)
		if p == b {
			t.Fatalf("key %d: replicas collide on server %d", key, p)
		}
		if idx := lay.SlotIndex(key); idx >= lay.SlotsPerShard() {
			t.Fatalf("key %d: slot %d outside table of %d", key, idx, lay.SlotsPerShard())
		}
	}
}

// kvSwitchConfig is the unit tests' modest switched fabric.
func kvSwitchConfig() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		Link:              fabric.DirectCable10G(),
		Forwarding:        500 * sim.Nanosecond,
		BufferBytes:       512 << 10,
		PFCPauseBytes:     32 << 10,
		ECNThresholdBytes: 16 << 10,
	}
}

// newTestCluster builds a 1-client + 3-server cluster on one engine.
func newTestCluster(t testing.TB, seed int64) (*testrig.Net, *Cluster) {
	return newTestClusterCfg(t, seed, nil)
}

// newTestClusterCfg is newTestCluster with a config hook.
func newTestClusterCfg(t testing.TB, seed int64, mod func(*Config)) (*testrig.Net, *Cluster) {
	t.Helper()
	net, err := testrig.NewNet(seed, 4, core.Profile10G(), kvSwitchConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ClientMachine:  0,
		ServerMachines: []int{1, 2, 3},
		NumKeys:        64,
		OpDeadline:     400 * sim.Microsecond,
		Backoff:        sim.Backoff{Base: 50 * sim.Microsecond, Max: 800 * sim.Microsecond, Factor: 2, Jitter: 0.5},
	}
	if mod != nil {
		mod(&cfg)
	}
	cl, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, cl
}

// mustZeroViolations asserts the guarantee counters and the audit.
func mustZeroViolations(t *testing.T, cl *Cluster) {
	t.Helper()
	st := cl.Client.Stats
	if st.StaleServed != 0 || st.Misapplied != 0 || st.TornServed != 0 {
		t.Fatalf("guarantee counters: StaleServed=%d Misapplied=%d TornServed=%d", st.StaleServed, st.Misapplied, st.TornServed)
	}
	if v := cl.Audit(); len(v) != 0 {
		t.Fatalf("audit: %d violations, first: %s", len(v), v[0])
	}
}

func TestCleanPutGetDelete(t *testing.T) {
	net, cl := newTestCluster(t, 1)
	c := cl.Client
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		for key := uint64(1); key <= 64; key++ {
			if runErr = c.Put(p, key); runErr != nil {
				return
			}
		}
		for key := uint64(1); key <= 64; key++ {
			slot, found, err := c.Get(p, key)
			if err != nil || !found {
				runErr = err
				return
			}
			if !bytes.Equal(slot.Val, ValueFor(key, 1)) {
				t.Errorf("key %d: wrong value", key)
			}
		}
		for key := uint64(4); key <= 64; key += 4 {
			if runErr = c.Delete(p, key); runErr != nil {
				return
			}
		}
		for key := uint64(4); key <= 64; key += 4 {
			slot, found, err := c.Get(p, key)
			if err != nil {
				runErr = err
				return
			}
			if found || !slot.Tombstone() || slot.Ver != 2 {
				t.Errorf("key %d after delete: found=%v slot=%+v", key, found, slot)
			}
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := c.Stats
	if st.AckedPuts != 64+16 || st.Gets != 80 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Retries != 0 || st.Failovers != 0 || st.Downs != 0 {
		t.Fatalf("clean run needed recovery: %+v", st)
	}
	mustZeroViolations(t, cl)
}
