package export

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"strom/internal/sim"
	"strom/internal/telemetry"
)

// Sink receives encoded JSONL lines. The file and buffered-writer sinks
// below cover the common cases; anything else (a socket, a ring buffer)
// plugs in by implementing Emit.
type Sink interface {
	Emit(line []byte) error
}

// WriterSink buffers lines into an io.Writer. Close flushes.
type WriterSink struct {
	bw *bufio.Writer
}

// NewWriterSink wraps w in a buffered JSONL sink.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Emit writes one line.
func (s *WriterSink) Emit(line []byte) error {
	_, err := s.bw.Write(line)
	return err
}

// Close flushes buffered lines to the underlying writer.
func (s *WriterSink) Close() error { return s.bw.Flush() }

// MemorySink retains decoded events in memory (tests, stromtail-style
// post-processing inside the same process).
type MemorySink struct {
	Events []Event
}

// Emit decodes and retains one line.
func (s *MemorySink) Emit(line []byte) error {
	ev, err := Decode(line)
	if err != nil {
		return err
	}
	s.Events = append(s.Events, ev)
	return nil
}

// report is one scrape of a health source, key-sorted (see kv).
type report struct {
	counters []kv[uint64]
	gauges   []kv[float64]
}

// metricRef locates one metric in a report.
type metricRef struct {
	idx   int
	gauge bool
}

// find looks a metric up by name: counters first, then gauges.
func (r *report) find(name string) (metricRef, bool) {
	if i, ok := findKV(r.counters, name); ok {
		return metricRef{idx: i}, true
	}
	if i, ok := findKV(r.gauges, name); ok {
		return metricRef{idx: i, gauge: true}, true
	}
	return metricRef{}, false
}

// value reads the metric at ref.
func (r *report) value(ref metricRef) float64 {
	if ref.gauge {
		return r.gauges[ref.idx].val
	}
	return float64(r.counters[ref.idx].val)
}

// source is one registered health source.
type source struct {
	org    origin // host, subsystem, "health"
	object string
	scrape ScrapeFunc

	// cur is the latest scrape and prev the one before it (the delta
	// base); the two swap every scrape so their slices are reused.
	cur, prev report
	// bound is the alert rules cur's metrics match (alerter.bind), valid
	// for as long as the source keeps reporting the same metric names.
	bound   []boundRule
	isBound bool
}

// load takes a fresh scrape: the previous one becomes the delta base, and
// the rule bindings are dropped if the metric names changed.
func (src *source) load(counters map[string]uint64, gauges map[string]float64) {
	src.cur, src.prev = src.prev, src.cur
	r := &src.cur
	r.counters = r.counters[:0]
	for k, v := range counters {
		r.counters = append(r.counters, kv[uint64]{k, v})
	}
	sortKVs(r.counters)
	r.gauges = r.gauges[:0]
	for k, v := range gauges {
		r.gauges = append(r.gauges, kv[float64]{k, v})
	}
	sortKVs(r.gauges)
	if !sameKeys(r.counters, src.prev.counters) || !sameKeys(r.gauges, src.prev.gauges) {
		src.isBound = false
	}
}

// origin is where an event comes from and what it is: the envelope's
// host, subsystem and type.
type origin struct {
	host, subsystem, typ string
}

// eventJSON is Event as the recorder writes it: the same fields and
// tags, with the payload as a value, so that one json.Marshal encodes
// the whole line.
type eventJSON struct {
	TS        int64  `json:"ts_ps"`
	Seq       uint64 `json:"seq"`
	Host      string `json:"host"`
	Subsystem string `json:"subsystem"`
	Type      string `json:"type"`
	Data      any    `json:"data,omitempty"`
}

// segEvent is one retained event of a segment, encoded, until Drain.
type segEvent struct {
	ts   sim.Time
	fin  bool   // end-of-run event: sorts after same-timestamp scrapes
	line []byte // the event's JSONL line, newline-terminated
}

// regEntry is one registered registry (or registry scope) scraped by a
// scraper.
type regEntry struct {
	host string
	reg  *telemetry.Registry
	// cur and prev are this scrape's counters and the previous scrape's
	// (the delta base), key-sorted; they swap every scrape.
	cur, prev []kv[uint64]
}

// scraper drives the sources living on one engine: one probe per
// engine, scraping sources in registration order, evaluating alert
// rules, and appending events to this segment.
type scraper struct {
	rec     *Recorder
	eng     *sim.Engine
	seg     int
	sources []*source
	regs    []*regEntry // optional registry scrapes, in registration order
	alerts  *alerter
	events  []segEvent   // the segment's kept events; Seq is the index
	delta   []kv[uint64] // scratch: one scrape's counter deltas
	// deltaMap is scratch too: delta as a health payload carries it.
	deltaMap map[string]uint64
}

// Recorder assembles the stream: per-engine scrapers (segments), the
// shared rule set, and the deterministic merge. Zero-value construction
// is not supported; use NewRecorder.
//
// Usage: register sources (and optionally a registry) during setup,
// declare the stream's reader with StreamTo if the stream is wanted,
// Start, run the simulation, then Drain. On a sharded testbed each
// engine's sources are scraped by that shard (the single-writer
// contract).
//
// A stream exists only for a declared reader, and detection never
// depends on it. Without a reader every scrape is still loaded and every
// rule evaluated — OnAlert observers fire at the same simulated instants,
// and Finish, Summaries and Fired report the same tallies — but no
// payload is encoded and no event is kept.
type Recorder struct {
	mu        sync.Mutex // guards segment creation (sharded setup)
	rules     []Rule
	scrapers  []*scraper
	observers []func(AlertEvent)
	reader    Sink // the stream's declared reader; nil keeps no stream
	started   bool
	finished  bool
}

// ErrNoStream is what Drain returns on a recorder that kept no stream
// because no reader was declared before Start.
var ErrNoStream = errors.New("export: no stream kept: no reader declared before Start")

// NewRecorder returns a recorder evaluating rules (nil = no alerting).
func NewRecorder(rules []Rule) *Recorder {
	return &Recorder{rules: rules}
}

// AlertEvent is one fire/resolve transition as seen by OnAlert
// observers.
type AlertEvent struct {
	Now    sim.Time
	Type   string // "alert" or "resolve"
	Rule   string
	Object string
	Metric string
	Value  float64
}

// OnAlert registers fn to run synchronously on every alert fire and
// resolve, from the scraping engine's event context at the scrape's
// simulated time. This is the hook controllers (the KV failover
// controller) sit on: the callback may mutate state owned by the
// scraping shard but must not touch other shards' state. Call during
// single-threaded setup.
func (r *Recorder) OnAlert(fn func(AlertEvent)) {
	if fn != nil {
		r.observers = append(r.observers, fn)
	}
}

// notify fans one transition out to the observers.
func (r *Recorder) notify(now sim.Time, typ string, p alertPayload) {
	if len(r.observers) == 0 {
		return
	}
	ev := AlertEvent{Now: now, Type: typ, Rule: p.Rule, Object: p.Object, Metric: p.Metric, Value: p.Value}
	for _, fn := range r.observers {
		fn(ev)
	}
}

// scraperFor returns the segment for eng, creating it on first use.
// Segment rank is creation order, which must be deterministic (register
// sources during single-threaded setup).
func (r *Recorder) scraperFor(eng *sim.Engine) *scraper {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.scrapers {
		if s.eng == eng {
			return s
		}
	}
	s := &scraper{rec: r, eng: eng, seg: len(r.scrapers), alerts: newAlerter(r.rules), deltaMap: map[string]uint64{}}
	r.scrapers = append(r.scrapers, s)
	return r.scrapers[len(r.scrapers)-1]
}

// Source registers a health source on the engine that owns its state.
// host/subsystem/object name the source in the stream ("A"/"port"/
// "nic:A", "fabric"/"link"/"a-to-b", ...).
func (r *Recorder) Source(eng *sim.Engine, host, subsystem, object string, scrape ScrapeFunc) {
	s := r.scraperFor(eng)
	s.sources = append(s.sources, &source{org: origin{host, subsystem, "health"}, object: object, scrape: scrape})
}

// Registry additionally scrapes a whole metrics registry on eng every
// interval, emitting one "metrics" event per registry subsystem (keyed
// by metric-name prefix: roce_*, link_*, nic_*, pcie_*, chaos_*, mr_*,
// ...) with counters, counter deltas, gauges and histogram digests.
// Quantile rules are evaluated here, against every histogram of the
// scraped registry, with host as the alert object. May be called more
// than once per engine — each registry (or scope) is scraped in
// registration order.
//
// A registry's collect callbacks mirror state owned by every component
// that attached to it, so mid-run collection is only sound when
// everything that resolved metrics or collectors through reg lives on
// eng. On a sharded testbed, attach one telemetry.Registry.Scope per
// machine (each component resolves its metrics through its machine's
// scope) and register each scope here on that machine's engine: every
// mid-run scrape then touches only shard-owned state, and the parent
// registry keeps the union for end-of-run exports. A flat registry is
// sound only on a testbed that runs on one engine.
func (r *Recorder) Registry(eng *sim.Engine, host string, reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s := r.scraperFor(eng)
	s.regs = append(s.regs, &regEntry{host: host, reg: reg})
}

// StreamTo declares sink as the reader the stream will be drained into,
// so that the recorder encodes and keeps every event until Drain. Call
// before Start: a stream begun mid-run would silently miss its start.
func (r *Recorder) StreamTo(sink Sink) {
	if r.started {
		panic("export: StreamTo after Start")
	}
	r.reader = sink
}

// Start installs one scrape probe per engine. The probes are daemon
// events: they scrape for as long as the workload runs and can never
// keep a finished simulation alive, even alongside other probes — so
// Start works whether it is called before or after the workload is
// scheduled.
func (r *Recorder) Start(every sim.Duration) {
	r.started = true
	for _, s := range r.scrapers {
		s := s
		telemetry.Probe(s.eng, every, func(now sim.Time) { s.tick(now) })
	}
}

// emit encodes one event and appends it to the segment. A payload with
// no JSON form (a NaN or infinite gauge) is a programming error.
func (s *scraper) emit(now sim.Time, fin bool, org origin, data any) {
	line, err := json.Marshal(eventJSON{
		TS: int64(now), Seq: uint64(len(s.events)), Host: org.host, Subsystem: org.subsystem, Type: org.typ, Data: data,
	})
	if err != nil {
		panic(fmt.Sprintf("export: %s %s event: %v", org.subsystem, org.typ, err))
	}
	s.events = append(s.events, segEvent{ts: now, fin: fin, line: append(line, '\n')})
}

// keeps reports whether the scraper encodes and keeps its events: only
// for a declared reader.
func (s *scraper) keeps() bool { return s.rec.reader != nil }

// emitAlert emits one fire/resolve transition and tells the observers.
func (s *scraper) emitAlert(now sim.Time, fin bool, host, typ string, p alertPayload) {
	if s.keeps() {
		s.emit(now, fin, origin{host, "alert", typ}, p)
	}
	s.rec.notify(now, typ, p)
}

// tick is one scrape point: health sources in order, then the
// registries.
func (s *scraper) tick(now sim.Time) {
	for _, src := range s.sources {
		s.scrapeSource(now, false, src)
	}
	for _, e := range s.regs {
		s.scrapeRegistry(now, false, e)
	}
}

// scrapeSource scrapes one source, emits its health event when the
// stream is kept and runs the alert rules over the fresh report. The
// event is encoded from the source's own maps before the source is
// called again.
func (s *scraper) scrapeSource(now sim.Time, fin bool, src *source) {
	counters, gauges := src.scrape()
	src.load(counters, gauges)
	if s.keeps() {
		s.delta = appendDeltas(s.delta[:0], src.cur.counters, src.prev.counters)
		clear(s.deltaMap)
		for _, d := range s.delta {
			s.deltaMap[d.key] = d.val
		}
		s.emit(now, fin, src.org, healthPayload{Object: src.object, Counters: counters, Delta: s.deltaMap, Gauges: gauges})
	}
	s.alerts.eval(now, src, func(typ string, p alertPayload) {
		s.emitAlert(now, fin, src.org.host, typ, p)
	})
}

// scrapeRegistry collects one registry, runs the Quantile rules over its
// histograms and, when the stream is kept, emits one "metrics" event per
// subsystem, in sorted subsystem order. The registry iterates in key
// order, so the delta base comes out key-sorted.
func (s *scraper) scrapeRegistry(now sim.Time, fin bool, e *regEntry) {
	e.reg.Collect()
	if !s.keeps() {
		if s.alerts.hasQuantile() {
			e.reg.EachHistogram(func(key string, h *telemetry.Histogram) {
				s.evalQuantile(now, fin, e.host, key, h)
			})
		}
		return
	}
	bySub := make(map[string]*metricsPayload)
	get := func(key string) *metricsPayload {
		sub := subsystemOf(key)
		p := bySub[sub]
		if p == nil {
			p = &metricsPayload{
				Counters: map[string]uint64{}, Delta: map[string]uint64{},
				Gauges: map[string]float64{}, Histograms: map[string]histDigest{},
			}
			bySub[sub] = p
		}
		return p
	}
	e.cur, e.prev = e.prev[:0], e.cur
	e.reg.EachCounter(func(key string, v uint64) {
		e.cur = append(e.cur, kv[uint64]{key, v})
		get(key).Counters[key] = v
	})
	s.delta = appendDeltas(s.delta[:0], e.cur, e.prev)
	for _, d := range s.delta {
		get(d.key).Delta[d.key] = d.val
	}
	e.reg.EachGauge(func(key string, v float64) {
		get(key).Gauges[key] = v
	})
	quantiles := s.alerts.hasQuantile()
	e.reg.EachHistogram(func(key string, h *telemetry.Histogram) {
		get(key).Histograms[key] = histDigest{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}
		if quantiles {
			s.evalQuantile(now, fin, e.host, key, h)
		}
	})
	subs := make([]string, 0, len(bySub))
	for sub := range bySub {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	for _, sub := range subs {
		s.emit(now, fin, origin{e.host, sub, "metrics"}, bySub[sub])
	}
}

// evalQuantile advances the Quantile rules against one histogram of a
// registry scraped for host; an empty histogram has no quantiles.
func (s *scraper) evalQuantile(now sim.Time, fin bool, host, key string, h *telemetry.Histogram) {
	if h.Count() == 0 {
		return
	}
	s.alerts.evalQuantile(now, host, key, h.Quantile, func(typ string, p alertPayload) {
		s.emitAlert(now, fin, host, typ, p)
	})
}

// subsystemOf maps a metric key to its registry subsystem by name
// prefix.
func subsystemOf(key string) string {
	prefix := key
	if i := strings.IndexAny(key, "_{"); i >= 0 {
		prefix = key[:i]
	}
	switch prefix {
	case "roce", "qp":
		return "roce"
	case "link":
		return "fabric"
	case "nic", "kernel", "op", "doorbell":
		return "core"
	case "pcie":
		return "pcie"
	case "chaos":
		return "chaos"
	case "mr":
		return "mr"
	}
	return "misc"
}

// Finish takes the end-of-run scrapes: one final health scrape per
// source (so the stream always carries the run's last word, even when
// the probe interval outlived the workload) and a final registry
// snapshot, each evaluated against the rules, then emits the per-scraper
// alert summaries when the stream is kept. Idempotent; Drain, Summaries
// and Fired call it.
func (r *Recorder) Finish() {
	if r.finished {
		return
	}
	r.finished = true
	for _, s := range r.scrapers {
		now := s.eng.Now()
		for _, src := range s.sources {
			s.scrapeSource(now, true, src)
		}
		for _, e := range s.regs {
			s.scrapeRegistry(now, true, e)
		}
		if !s.keeps() {
			continue
		}
		for _, sum := range s.alerts.summaries(s.objects()) {
			s.emit(now, true, origin{"testbed", "alert", "summary"}, sum)
		}
	}
}

// objects lists the scraper's alertable objects in registration order,
// deduplicated: health sources first, then registry hosts (the
// Quantile rules' alert objects).
func (s *scraper) objects() []string {
	seen := make(map[string]bool, len(s.sources)+len(s.regs))
	out := make([]string, 0, len(s.sources)+len(s.regs))
	add := func(obj string) {
		if !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
	}
	for _, src := range s.sources {
		add(src.object)
	}
	for _, e := range s.regs {
		add(e.host)
	}
	return out
}

// Drain finishes the recorder and emits the merged stream into the
// reader declared with StreamTo, closing it afterwards if it is an
// io.Closer (a WriterSink flushes). The merge key is (timestamp,
// end-of-run flag, segment rank, sequence) — a total order independent
// of shard interleaving. A recorder with no reader kept no stream:
// Drain returns ErrNoStream.
func (r *Recorder) Drain() error {
	sink := r.reader
	if sink == nil {
		return ErrNoStream
	}
	r.Finish()
	type ranked struct {
		segEvent
		seg int
	}
	var all []ranked
	for _, s := range r.scrapers {
		for _, e := range s.events {
			all = append(all, ranked{e, s.seg})
		}
	}
	// Stable: within a segment, sequence order breaks the remaining ties.
	sort.SliceStable(all, func(a, b int) bool {
		x, y := &all[a], &all[b]
		if x.ts != y.ts {
			return x.ts < y.ts
		}
		if x.fin != y.fin {
			return !x.fin
		}
		return x.seg < y.seg
	})
	for _, e := range all {
		if err := sink.Emit(e.line); err != nil {
			return err
		}
	}
	if c, ok := sink.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Summaries finishes the recorder and returns every (rule, object)
// alert tally, merged across segments in (segment, rule, object) order.
func (r *Recorder) Summaries() []AlertSummary {
	r.Finish()
	var out []AlertSummary
	for _, s := range r.scrapers {
		out = append(out, s.alerts.summaries(s.objects())...)
	}
	return out
}

// Fired reports how many times the named rule fired across all objects.
func (r *Recorder) Fired(rule string) uint64 {
	var n uint64
	for _, s := range r.Summaries() {
		if s.Rule == rule {
			n += s.Fired
		}
	}
	return n
}
