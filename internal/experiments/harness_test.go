package experiments

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"strom/internal/hostmem"
	"strom/internal/kvstore"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// A latency point whose verb fails reports that verb's error, not a count
// of the iterations that finished.
func TestLatencyPointReportsVerbError(t *testing.T) {
	o := Quick().normalized()
	const size = 9 << 20 // past the end of the bed's 8 MiB buffers
	if _, err := readLatency(o, profile10G(), size); !errors.Is(err, roce.ErrRemoteAccess) {
		t.Errorf("readLatency of 9 MiB: %v, want %v", err, roce.ErrRemoteAccess)
	}
	if _, err := writePingPongLatency(o, profile10G(), size); !errors.Is(err, hostmem.ErrNotMapped) {
		t.Errorf("writePingPongLatency of 9 MiB: %v, want %v", err, hostmem.ErrNotMapped)
	}
}

func TestRunClientContract(t *testing.T) {
	bed := func() *testrig.Pair {
		pair, err := newPair(Quick(), profile10G(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return pair
	}
	// parkA parks A's process on a word of A's buffer nobody writes.
	parkA := func(pair *testrig.Pair) func(*sim.Process) error {
		return func(p *sim.Process) error {
			return pair.A.Host().PollNonZero(p, pair.A.Memory(), pair.BufA.Base(), 0)
		}
	}
	succeed := func(*sim.Process) error { return nil }
	boom := errors.New("boom")
	fail := func(*sim.Process) error { return boom }

	pair := bed()
	if err := runClient(pair, parkA(pair), nil); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("A parked for good: %v, want a stall", err)
	}
	if err := runClient(bed(), succeed, fail); !errors.Is(err, boom) {
		t.Errorf("A succeeded, B failed: %v, want %v", err, boom)
	}
	pair = bed()
	if err := runClient(pair, parkA(pair), fail); !errors.Is(err, boom) {
		t.Errorf("A stalled, B failed: %v, want B's %v before the stall", err, boom)
	}
	if err := runClient(bed(), succeed, succeed); err != nil {
		t.Errorf("both succeeded: %v", err)
	}
}

// twoReadGet leaves every key's value in scratch, exactly the bytes the
// table holds, and a key missing from its entry is an error.
func TestTwoReadGetFetchesEveryKey(t *testing.T) {
	pair, err := newPair(Quick(), profile10G(), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	const seed, entries, n, valueSize = 3, 64, 96, 100
	ht, keys, err := randomHashTable(pair, rand.New(rand.NewSource(seed)), entries, n, valueSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n || ht.Len() != n {
		t.Fatalf("%d keys, %d in the table; want %d", len(keys), ht.Len(), n)
	}
	// 96 keys in 64 three-bucket entries overflow some entry at this seed:
	// the keys are not simply the first n draws.
	first := rand.New(rand.NewSource(seed))
	redrawn := false
	for _, k := range keys {
		if k != first.Uint64() {
			redrawn = true
			break
		}
		first.Read(make([]byte, valueSize))
	}
	if !redrawn {
		t.Error("no key was redrawn: the full-entry path went unexercised")
	}
	missing := uint64(1)
	for _, ok := ht.Get(missing); ok; _, ok = ht.Get(missing) {
		missing++
	}

	scratch := pair.BufA.Base()
	got := map[uint64][]byte{}
	var missErr error
	err = runClient(pair, func(p *sim.Process) error {
		for _, key := range keys {
			if err := twoReadGet(p, pair, testrig.QPA, ht, key, valueSize, scratch); err != nil {
				return err
			}
			v, err := pair.A.Memory().ReadVirt(scratch, valueSize)
			if err != nil {
				return err
			}
			got[key] = v
		}
		missErr = twoReadGet(p, pair, testrig.QPA, ht, missing, valueSize, scratch)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if want, _ := ht.Get(key); !bytes.Equal(got[key], want) {
			t.Fatalf("key %d: scratch holds % x, the table % x", key, got[key], want)
		}
	}
	if missErr == nil || !strings.Contains(missErr.Error(), "not in its entry") {
		t.Errorf("GET of missing key %d: %v, want not in its entry", missing, missErr)
	}
}

// A Put that fails for any reason but a full entry fails the build,
// instead of drawing keys for ever.
func TestRandomHashTableReportsRegionFull(t *testing.T) {
	pair, err := newPair(Quick(), profile10G(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// At most one value fits in B's buffer.
	valueSize := pair.BufB.Size()/2 + 1
	if _, _, err := randomHashTable(pair, rand.New(rand.NewSource(1)), 4, 2, valueSize); !errors.Is(err, kvstore.ErrRegionFull) {
		t.Errorf("two %d-byte values in a %d-byte region: %v, want %v", valueSize, pair.BufB.Size(), err, kvstore.ErrRegionFull)
	}
}
