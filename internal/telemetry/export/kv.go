package export

import (
	"slices"
	"strings"
)

// kv is one named metric of a scrape. Scrapes are carried as key-sorted
// []kv rather than maps: sorted order is what the delta merge against
// the previous scrape and the alerter's glob rules need, and a slice is
// reused from one tick to the next.
type kv[V any] struct {
	key string
	val V
}

// sortKVs orders a scrape by key.
func sortKVs[V any](kvs []kv[V]) {
	slices.SortFunc(kvs, func(a, b kv[V]) int { return strings.Compare(a.key, b.key) })
}

// findKV returns the index of key in key-sorted kvs.
func findKV[V any](kvs []kv[V], key string) (int, bool) {
	return slices.BinarySearchFunc(kvs, key, func(e kv[V], k string) int { return strings.Compare(e.key, k) })
}

// sameKeys reports whether two key-sorted scrapes name the same metrics.
func sameKeys[V any](a, b []kv[V]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key {
			return false
		}
	}
	return true
}

// appendDeltas appends to dst the counters of cur that moved since prev
// (both key-sorted), with the distance moved; a counter prev lacks moved
// from zero.
func appendDeltas(dst, cur, prev []kv[uint64]) []kv[uint64] {
	j := 0
	for _, c := range cur {
		for j < len(prev) && prev[j].key < c.key {
			j++
		}
		var last uint64
		if j < len(prev) && prev[j].key == c.key {
			last = prev[j].val
		}
		if d := c.val - last; d != 0 {
			dst = append(dst, kv[uint64]{c.key, d})
		}
	}
	return dst
}

// histDigest is the per-scrape digest of one histogram.
type histDigest struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// metricsPayload is the JSON payload of a "metrics" event: one registry
// subsystem's share of a registry scrape, every member omitted when
// empty.
type metricsPayload struct {
	Counters   map[string]uint64     `json:"counters,omitempty"`
	Delta      map[string]uint64     `json:"delta,omitempty"`
	Gauges     map[string]float64    `json:"gauges,omitempty"`
	Histograms map[string]histDigest `json:"histograms,omitempty"`
}
