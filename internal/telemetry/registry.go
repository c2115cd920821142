package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Counter is a monotonically increasing value. The nil Counter discards
// updates.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter (used by collect callbacks that mirror an
// existing stats struct into the registry).
func (c *Counter) Set(v uint64) {
	if c == nil {
		return
	}
	c.v = v
}

// Gauge is a point-in-time value. The nil Gauge discards updates.
type Gauge struct{ v float64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Registry is a label-keyed collection of metrics.
//
// Handle resolution (Counter/Gauge/Histogram lookups) is guarded by a
// mutex. The metric values themselves are deliberately plain fields:
// a registry belongs to one simulation, which runs on one goroutine,
// and the shard contract is single-writer-per-handle — every metric key
// (distinguished by nic/direction labels) is written by exactly one
// shard, so what a mid-run scrape reads does not depend on the order
// shards run in.
//
// The nil *Registry is valid and inert: metric constructors return nil
// handles and OnCollect/Collect do nothing.
type Registry struct {
	mu         sync.RWMutex
	parent     *Registry
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Scope returns a child registry sharing this registry's handles: a
// metric resolved through the scope resolves to the same Counter/Gauge/
// Histogram the parent would return for that key, and collect callbacks
// registered on the scope also run on the parent's Collect. What the
// scope adds is a *view*: its Each* and Collect cover only
// the keys resolved (and callbacks registered) through it.
//
// This is what makes mid-run registry scraping sound on a sharded
// testbed: give each machine a scope, resolve that machine's metrics
// and collectors through it, and register the scope with the JSONL
// recorder on that machine's engine. Every mid-run scrape then touches
// only state owned by the scraping shard, while the parent still sees
// the union for end-of-run WriteJSON (after the group's final barrier,
// where every shard's writes are visible). Scope on the nil Registry
// returns nil.
func (r *Registry) Scope() *Registry {
	if r == nil {
		return nil
	}
	s := NewRegistry()
	s.parent = r
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
// Resolution allocates (the canonical key); hot paths must resolve once
// at attach time and hold the handle — Add on a held handle is
// allocation-free.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.RLock()
	c, ok := r.counters[k]
	r.mu.RUnlock()
	if ok {
		return c
	}
	var shared *Counter
	if r.parent != nil {
		shared = r.parent.Counter(name, labels...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[k]; !ok {
		c = shared
		if c == nil {
			c = &Counter{}
		}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.RLock()
	g, ok := r.gauges[k]
	r.mu.RUnlock()
	if ok {
		return g
	}
	var shared *Gauge
	if r.parent != nil {
		shared = r.parent.Gauge(name, labels...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[k]; !ok {
		g = shared
		if g == nil {
			g = &Gauge{}
		}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for name+labels, creating it on first
// use. unit documents the observed quantity ("ps", "frames", ...) and is
// recorded in the export; the unit of the first registration wins.
func (r *Registry) Histogram(name, unit string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	r.mu.RLock()
	h, ok := r.histograms[k]
	r.mu.RUnlock()
	if ok {
		return h
	}
	var shared *Histogram
	if r.parent != nil {
		shared = r.parent.Histogram(name, unit, labels...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[k]; !ok {
		h = shared
		if h == nil {
			h = &Histogram{unit: unit}
		}
		r.histograms[k] = h
	}
	return h
}

// OnCollect registers fn to run before every export. Components use this
// to mirror their existing stats structs into the registry without
// touching their hot paths. On a scope the callback also registers with
// the parent, so the parent's end-of-run Collect refreshes every
// scope's mirrors.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
	if r.parent != nil {
		r.parent.OnCollect(fn)
	}
}

// Collect runs the registered collect callbacks.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.mu.RLock()
	collectors := r.collectors
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn()
	}
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EachCounter calls fn for every counter in sorted key order. It does
// not run the collect callbacks; call Collect first for fresh mirrors.
// Used by the JSONL export scraper (internal/telemetry/export).
func (r *Registry) EachCounter(fn func(key string, v uint64)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.counters) {
		fn(k, r.counters[k].v)
	}
}

// EachGauge calls fn for every gauge in sorted key order.
func (r *Registry) EachGauge(fn func(key string, v float64)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.gauges) {
		fn(k, r.gauges[k].v)
	}
}

// EachHistogram calls fn for every histogram in sorted key order.
func (r *Registry) EachHistogram(fn func(key string, h *Histogram)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.histograms) {
		fn(k, r.histograms[k])
	}
}

// snapshot is the JSON shape of an exported registry. encoding/json
// serializes map keys in sorted order, which gives the stable iteration
// order the determinism contract requires.
type snapshot struct {
	Counters   map[string]uint64             `json:"counters"`
	Gauges     map[string]float64            `json:"gauges"`
	Histograms map[string]*histogramSnapshot `json:"histograms"`
}

// WriteJSON collects and writes the whole registry as indented JSON with
// deterministically sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]*histogramSnapshot{},
	}
	if r != nil {
		r.Collect()
		for k, c := range r.counters {
			snap.Counters[k] = c.v
		}
		for k, g := range r.gauges {
			snap.Gauges[k] = g.v
		}
		for k, h := range r.histograms {
			snap.Histograms[k] = h.snapshot()
		}
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}
