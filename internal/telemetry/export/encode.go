package export

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Canonical payload encoding.
//
// Every payload of the stream is written by the append-style encoders
// below, straight into the scraper's payload buffer. Their output is,
// byte for byte, what encoding/json produces for the payload shapes in
// health.go, alert.go and this file (sorted map keys, struct fields in
// declaration order, omitempty, HTML-safe string escaping, json's integer
// and float formatting) — the encoder tests hold them to that — without
// the reflection walk, the per-map key sort through reflect.Value and
// the intermediate buffers json.Marshal pays on every scrape.

// kv is one named metric of a scrape. Scrapes are carried as key-sorted
// []kv rather than maps: sorted order is what the canonical JSON, the
// delta merge against the previous scrape and the alerter's glob rules
// all need, and a slice is reused from one tick to the next.
type kv[V any] struct {
	key string
	val V
}

// sortKVs orders a scrape by key, the order encoding/json gives map keys.
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

// histDigest is the per-scrape digest of one histogram:
// {"count":..,"sum":..,"p50":..,"p99":..}.
type histDigest struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// appendHealth appends a "health" payload:
// {"object":..,"counters":{..},"delta":{..},"gauges":{..}}, delta and
// gauges omitted when empty, counters null when the source reported a
// nil map.
func appendHealth(b []byte, object string, r *report, delta []kv[uint64]) []byte {
	b = append(b, `{"object":`...)
	b = appendString(b, object)
	b = append(b, `,"counters":`...)
	if r.nilCounters {
		b = append(b, "null"...)
	} else {
		b = appendMap(b, r.counters, appendUint)
	}
	if len(delta) > 0 {
		b = append(b, `,"delta":`...)
		b = appendMap(b, delta, appendUint)
	}
	if len(r.gauges) > 0 {
		b = append(b, `,"gauges":`...)
		b = appendMap(b, r.gauges, appendFloat)
	}
	return append(b, '}')
}

// metricsPayload is one registry subsystem's share of a registry scrape,
// each list key-sorted.
type metricsPayload struct {
	counters []kv[uint64]
	delta    []kv[uint64]
	gauges   []kv[float64]
	hists    []kv[histDigest]
}

// appendMetrics appends a "metrics" payload:
// {"counters":{..},"delta":{..},"gauges":{..},"histograms":{..}}, every
// member omitted when empty.
func appendMetrics(b []byte, p *metricsPayload) []byte {
	b = append(b, '{')
	n := len(b)
	member := func(name string) {
		if len(b) > n {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	if len(p.counters) > 0 {
		member(`"counters":`)
		b = appendMap(b, p.counters, appendUint)
	}
	if len(p.delta) > 0 {
		member(`"delta":`)
		b = appendMap(b, p.delta, appendUint)
	}
	if len(p.gauges) > 0 {
		member(`"gauges":`)
		b = appendMap(b, p.gauges, appendFloat)
	}
	if len(p.hists) > 0 {
		member(`"histograms":`)
		b = appendMap(b, p.hists, appendHist)
	}
	return append(b, '}')
}

// appendAlert appends an "alert"/"resolve" payload.
func appendAlert(b []byte, p alertPayload) []byte {
	b = append(b, `{"rule":`...)
	b = appendString(b, p.Rule)
	b = append(b, `,"object":`...)
	b = appendString(b, p.Object)
	b = append(b, `,"metric":`...)
	b = appendString(b, p.Metric)
	b = append(b, `,"kind":`...)
	b = appendString(b, p.Kind)
	b = append(b, `,"value":`...)
	b = appendFloat(b, p.Value)
	return append(b, '}')
}

// appendSummary appends a "summary" payload.
func appendSummary(b []byte, s AlertSummary) []byte {
	b = append(b, `{"rule":`...)
	b = appendString(b, s.Rule)
	b = append(b, `,"object":`...)
	b = appendString(b, s.Object)
	b = append(b, `,"fired":`...)
	b = strconv.AppendUint(b, s.Fired, 10)
	b = append(b, `,"active":`...)
	b = strconv.AppendBool(b, s.Active)
	return append(b, '}')
}

// appendMap appends key-sorted kvs as a JSON object.
func appendMap[V any](b []byte, kvs []kv[V], appendVal func([]byte, V) []byte) []byte {
	b = append(b, '{')
	for i, e := range kvs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, e.key)
		b = append(b, ':')
		b = appendVal(b, e.val)
	}
	return append(b, '}')
}

func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

func appendHist(b []byte, h histDigest) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendUint(b, h.Count, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, h.Sum, 10)
	b = append(b, `,"p50":`...)
	b = appendFloat(b, h.P50)
	b = append(b, `,"p99":`...)
	b = appendFloat(b, h.P99)
	return append(b, '}')
}

// appendFloat formats f as encoding/json does: shortest representation
// that round-trips, plain decimals in [1e-6, 1e21) and exponent form with
// a two-digit exponent trimmed to one outside it. NaN and the infinities
// have no JSON form; a payload carrying one is a programming error, as it
// was under json.Marshal.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("export: payload value %v has no JSON encoding", f))
	}
	// Most gauges are whole numbers (a flag, a queue depth); json prints
	// those, in 'f' format, as the integer's digits. Zero keeps the slow
	// path for the sign of -0.
	if i := int64(f); float64(i) == f && i != 0 && -1<<53 < i && i < 1<<53 {
		return strconv.AppendInt(b, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// plain marks the ASCII bytes json copies into a string unescaped.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString quotes s as encoding/json does with HTML escaping on (the
// json.Marshal default): ", \ and control characters escaped, <, > and &
// as \u00XX, U+2028/U+2029 escaped, invalid UTF-8 written as the
// escape \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
