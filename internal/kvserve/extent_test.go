package kvserve

import (
	"bytes"
	"errors"
	"testing"

	"strom/internal/sim"
	"strom/internal/testrig"
)

func TestExtentCodec(t *testing.T) {
	val := LargeValueFor(9, 4)
	img, err := EncodeExtent(9, 4, val)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != ExtentSize {
		t.Fatalf("encoded %d bytes, want %d", len(img), ExtentSize)
	}
	ext := DecodeExtent(img)
	if ext.Torn || ext.Key != 9 || ext.Ver != 4 || !bytes.Equal(ext.Val, val) {
		t.Fatalf("round trip = %+v", ext)
	}
	// Any single corrupted byte must read as torn.
	img[40] ^= 0xFF
	if got := DecodeExtent(img); !got.Torn {
		t.Fatalf("corrupted extent decoded clean: %+v", got)
	}
	if _, err := EncodeExtent(1, 1, make([]byte, LargeValCap+1)); !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("oversized value: err = %v", err)
	}
	if got := DecodeExtent(img[:ExtentSize-1]); !got.Torn {
		t.Fatal("short image decoded clean")
	}
}

func TestSpillRefCodec(t *testing.T) {
	ref := EncodeSpillRef(5*ExtentSize, 80)
	off, vlen, ok := DecodeSpillRef(ref)
	if !ok || off != 5*ExtentSize || vlen != 80 {
		t.Fatalf("round trip = %d, %d, %v", off, vlen, ok)
	}
	if len(ref) > ValCap {
		t.Fatalf("spill ref %d B does not fit the inline slot", len(ref))
	}
	bad := [][]byte{
		nil,
		ref[:8],
		EncodeSpillRef(ExtentSize+1, 80),   // unaligned offset
		EncodeSpillRef(ExtentSize, ValCap), // inline-sized: not a spill
		EncodeSpillRef(ExtentSize, LargeValCap+1), // over cap
	}
	for i, b := range bad {
		if _, _, ok := DecodeSpillRef(b); ok {
			t.Errorf("bad ref %d accepted", i)
		}
	}
}

func TestLargeValueForDeterministic(t *testing.T) {
	for _, kv := range [][2]uint64{{1, 1}, {1, 2}, {99, 7}, {1 << 40, 12345}} {
		a, b := LargeValueFor(kv[0], kv[1]), LargeValueFor(kv[0], kv[1])
		if !bytes.Equal(a, b) {
			t.Fatalf("LargeValueFor(%d,%d) not deterministic", kv[0], kv[1])
		}
		if len(a) <= ValCap || len(a) > LargeValCap {
			t.Fatalf("LargeValueFor(%d,%d) = %d bytes, want %d..%d", kv[0], kv[1], len(a), ValCap+1, LargeValCap)
		}
	}
	if bytes.Equal(LargeValueFor(1, 1), LargeValueFor(1, 2)) {
		t.Fatal("versions must produce distinct values")
	}
}

// newLargeTestCluster is newTestCluster with two sessions, so a second
// client process can have an operation in flight beside the first's.
func newLargeTestCluster(t *testing.T, seed int64) (*testrig.Net, *Cluster) {
	t.Helper()
	net, cl := newTestClusterCfg(t, seed, func(cfg *Config) { cfg.Sessions = 2 })
	return net, cl
}

func TestCleanLargePutGetDelete(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		// Spill, read back, overwrite in place, read again.
		for key := uint64(1); key <= 16; key++ {
			if runErr = c.PutLarge(p, key); runErr != nil {
				return
			}
		}
		for key := uint64(1); key <= 16; key++ {
			slot, found, err := c.Get(p, key)
			if err != nil || !found {
				runErr = err
				return
			}
			if !bytes.Equal(slot.Val, LargeValueFor(key, 1)) {
				t.Errorf("key %d: wrong large value", key)
			}
		}
		live := c.LiveExtents()
		for key := uint64(1); key <= 16; key++ {
			if runErr = c.PutLarge(p, key); runErr != nil {
				return
			}
		}
		if c.LiveExtents() != live {
			t.Errorf("overwrite grew extents %d → %d", live, c.LiveExtents())
		}
		// Delete half (extents freed), move a quarter back inline.
		for key := uint64(1); key <= 8; key++ {
			if runErr = c.Delete(p, key); runErr != nil {
				return
			}
		}
		for key := uint64(9); key <= 12; key++ {
			if runErr = c.Put(p, key); runErr != nil {
				return
			}
		}
		for key := uint64(1); key <= 16; key++ {
			slot, found, err := c.Get(p, key)
			if err != nil {
				runErr = err
				return
			}
			switch {
			case key <= 8:
				if found {
					t.Errorf("key %d: found after delete", key)
				}
			case key <= 12:
				if !found || !bytes.Equal(slot.Val, ValueFor(key, 3)) {
					t.Errorf("key %d: wrong inline value after unspill", key)
				}
			default:
				if !found || !bytes.Equal(slot.Val, LargeValueFor(key, 2)) {
					t.Errorf("key %d: wrong large value after overwrite", key)
				}
			}
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := c.Stats
	if st.LargePuts != 32 || st.SpilledReads == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.TornDetected != 0 || st.TornServed != 0 {
		t.Errorf("clean run saw torn reads: %+v", st)
	}
	if c.LiveExtents() != 4 {
		t.Errorf("live extents = %d, want 4", c.LiveExtents())
	}
	if cl.Kernels[0].Stats().Invocations+cl.Kernels[1].Stats().Invocations+cl.Kernels[2].Stats().Invocations == 0 {
		t.Error("no consistency-kernel invocations: Gets did not go through the kernel")
	}
	mustZeroViolations(t, cl)
}

// TestTornReadClassification injects each torn-read class host-side
// into the primary's extent and demands, of every pair that reads it:
// detection in that class and no other, bounded retries, failover to the
// backup, and the correct value served — never the torn one.
func TestTornReadClassification(t *testing.T) {
	cases := []struct {
		name    string
		inject  func(c *Client, key uint64) []byte // returns the image to plant
		counter func(st Stats) uint64
	}{
		{
			name: "concurrent-overwrite",
			inject: func(c *Client, key uint64) []byte {
				img, _ := EncodeExtent(key, c.Issued(key)+1, LargeValueFor(key, c.Issued(key)+1))
				return img
			},
			counter: func(st Stats) uint64 { return st.TornOverwrite },
		},
		{
			name: "stale-replica",
			inject: func(c *Client, key uint64) []byte {
				img, _ := EncodeExtent(key, 1, LargeValueFor(key, 1))
				return img
			},
			counter: func(st Stats) uint64 { return st.TornStaleRep },
		},
		{
			name: "reused-extent",
			inject: func(c *Client, key uint64) []byte {
				img, _ := EncodeExtent(key+3, 1, LargeValueFor(key+3, 1))
				return img
			},
			counter: func(st Stats) uint64 { return st.TornReused },
		},
		{
			name: "corruption",
			inject: func(c *Client, key uint64) []byte {
				img, _ := EncodeExtent(key, 2, LargeValueFor(key, 2))
				img[30] ^= 0x40
				return img
			},
			counter: func(st Stats) uint64 { return st.TornCorrupt },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, cl := newLargeTestCluster(t, 1)
			c := cl.Client
			const key = 4 // shard 1: primary server 1 (machine 2), backup server 2
			var runErr error
			net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
				if runErr = c.PutLarge(p, key); runErr != nil {
					return
				}
				if runErr = c.PutLarge(p, key); runErr != nil {
					return
				}
				// Plant the torn image in the primary's extent only.
				sh := cl.Lay.ShardOf(key)
				srv := cl.Servers[cl.Lay.PrimaryServer(sh)]
				extVA := cl.Lay.ExtentAddr(srv.ArenaFor(cl.Lay, sh), c.ext[key].off)
				if runErr = srv.M.NIC.Memory().WriteVirt(extVA, tc.inject(c, key)); runErr != nil {
					return
				}
				slot, found, err := c.Get(p, key)
				if err != nil || !found {
					runErr = err
					return
				}
				if !bytes.Equal(slot.Val, LargeValueFor(key, 2)) {
					t.Errorf("served %d B, want LargeValueFor(%d,2)", len(slot.Val), key)
				}
				// Heal the primary for the audit.
				if runErr = c.PutLarge(p, key); runErr != nil {
					return
				}
			})
			net.Run()
			if runErr != nil {
				t.Fatal(runErr)
			}
			st := c.Stats
			if st.TornDetected == 0 || st.TornRetries == 0 || st.TornFailovers == 0 {
				t.Errorf("want detection+retries+failover, got %+v", st)
			}
			if n := tc.counter(st); n == 0 || n != st.TornDetected {
				t.Errorf("class counter %d of %d detections: %+v", n, st.TornDetected, st)
			}
			if st.Failovers == 0 {
				t.Error("get was not served by the backup")
			}
			if st.TornServed != 0 {
				t.Errorf("torn value served: %+v", st)
			}
			mustZeroViolations(t, cl)
		})
	}
}
