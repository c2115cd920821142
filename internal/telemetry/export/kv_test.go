package export

import (
	"slices"
	"strings"
	"testing"
)

// FuzzDeltasMatchMap: for any metric names and counter values before and
// after, appendDeltas over the sorted scrapes names exactly the counters a
// per-key map lookup says moved, by the same distance (a counter that
// went backwards wraps, as the subtraction does), in key order.
func FuzzDeltasMatchMap(f *testing.F) {
	f.Add("out_frames", "fcs_err", "outstanding_ops", uint64(0), uint64(10), uint64(3), uint64(3), byte(0))
	f.Add("kv_heartbeats", "", "kv_serving", uint64(41), uint64(42), uint64(0), uint64(0), byte(1))
	f.Add("k\"1\\", "k\xff2", "g\n", uint64(1<<64-1), uint64(0), uint64(1)<<53, uint64(1)<<63, byte(2))
	f.Add("same", "same", "same", uint64(5), uint64(5), uint64(6), uint64(7), byte(7))
	f.Add("a", "b", "c", uint64(9), uint64(2), uint64(3), uint64(4), byte(12))
	f.Fuzz(func(t *testing.T, k1, k2, k3 string, p1, c1, p2, c2 uint64, shape byte) {
		// shape picks which maps are nil, empty or filled, and whether a
		// counter exists only before or only after.
		var prev, cur map[string]uint64
		switch shape & 3 {
		case 0:
			prev = map[string]uint64{k1: p1, k2: p2}
		case 1:
			prev = map[string]uint64{k1: p1, k3: p2}
		case 2:
			prev = map[string]uint64{}
		}
		switch shape >> 2 & 3 {
		case 0:
			cur = map[string]uint64{k1: c1, k2: c2}
		case 1:
			cur = map[string]uint64{k1: c1}
		case 2:
			cur = map[string]uint64{k2: c2, k3: c1}
		}
		src := &source{}
		src.load(prev, nil)
		src.load(cur, nil)
		got := appendDeltas(nil, src.cur.counters, src.prev.counters)

		want := map[string]uint64{}
		for k, v := range cur {
			if d := v - prev[k]; d != 0 {
				want[k] = d
			}
		}
		if len(got) != len(want) {
			t.Fatalf("appendDeltas gave %v, the map reference %v", got, want)
		}
		for _, d := range got {
			if w, ok := want[d.key]; !ok || w != d.val {
				t.Fatalf("appendDeltas gave %q moved by %d, the map reference %v", d.key, d.val, want)
			}
		}
		if !slices.IsSortedFunc(got, func(a, b kv[uint64]) int { return strings.Compare(a.key, b.key) }) {
			t.Fatalf("deltas not key-sorted: %v", got)
		}
	})
}
