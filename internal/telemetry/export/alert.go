package export

import (
	"fmt"
	"sort"
	"strings"

	"strom/internal/sim"
)

// RuleKind selects the alert condition class.
type RuleKind uint8

const (
	// Threshold compares the metric's current value against Value and
	// fires once the comparison has held continuously for For.
	Threshold RuleKind = iota
	// Rate compares the metric's increase rate — events per millisecond
	// of simulated time, measured over the trailing For window —
	// against Value, and fires as soon as a full window exceeds it.
	Rate
	// NoProgress is the watchdog: it fires when the metric has not
	// advanced for For while the While gauge (or counter) is non-zero.
	NoProgress
	// Quantile compares a histogram's Q-quantile against Value, with
	// the same hold-For semantics as Threshold. Histograms live in
	// metrics registries, not health reports, so Quantile rules are
	// evaluated at registry scrapes (Recorder.Registry) and Metric
	// matches histogram keys (globs welcome: "kv_op_latency_ps*"
	// covers every label set of the metric).
	Quantile
)

// String names the kind.
func (k RuleKind) String() string {
	switch k {
	case Threshold:
		return "threshold"
	case Rate:
		return "rate"
	case NoProgress:
		return "no-progress"
	case Quantile:
		return "quantile"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rule is one declarative alert condition, evaluated at every scrape
// point against every health source that exposes its metric.
type Rule struct {
	// Name identifies the rule in alert events and summaries.
	Name string
	// Object restricts the rule to one source object ("" = any source
	// whose report contains Metric).
	Object string
	// Metric is the health counter or gauge the rule watches (for
	// Quantile rules, the registry histogram key). A single '*'
	// wildcard matches any substring — "qp*_retransmissions" watches
	// every per-QP retransmission counter independently, each matched
	// metric with its own alert state.
	Metric string
	// Kind selects the condition class.
	Kind RuleKind
	// Op is the comparison for Threshold and Rate rules: "gt" (the
	// default when empty), "ge", "lt", "le" or "eq".
	Op string
	// Value is the comparison threshold. For Rate rules it is in
	// events per millisecond of simulated time.
	Value float64
	// For is the hold duration: Threshold fires after the condition
	// held this long, Rate measures over this trailing window, and
	// NoProgress fires after this long without the metric advancing.
	// Zero means Threshold rules fire on the first true scrape.
	For sim.Duration
	// While gates a NoProgress rule: the watchdog is armed only while
	// this gauge (or counter) is greater than zero, so an idle source
	// never trips it.
	While string
	// Q is the quantile a Quantile rule evaluates (0.99 for p99).
	Q float64
}

// DefaultRules is the rule set the canonical instrumented scenarios and
// `strombench -jsonl` evaluate. Thresholds are tuned so a clean run
// stays silent while injected chaos (loss bursts, corruption, rogue
// requesters, crash cycles, blackholes) provably fires.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "out-discards", Metric: "out_discards", Kind: Rate, Op: "gt", Value: 2, For: 500 * sim.Microsecond},
		// link-flap watches the drop-cause breakdown rather than the
		// aggregate: any burst of frames dying inside a link-down window
		// fires it, even when total discards stay under the out-discards
		// rate. A clean link never increments the _flap cause, so the
		// rule is structurally silent without an outage.
		{Name: "link-flap", Metric: "out_discards_flap", Kind: Rate, Op: "gt", Value: 0.5, For: 500 * sim.Microsecond},
		{Name: "fcs-err", Metric: "fcs_err", Kind: Rate, Op: "gt", Value: 1, For: 500 * sim.Microsecond},
		{Name: "pfc-pause", Metric: "pfc_pause_tx", Kind: Rate, Op: "gt", Value: 1, For: 500 * sim.Microsecond},
		{Name: "ecn-marked", Metric: "ecn_marked", Kind: Rate, Op: "gt", Value: 2, For: 500 * sim.Microsecond},
		{Name: "remote-access", Metric: "remote_access_naks", Kind: Threshold, Op: "gt", Value: 0},
		{Name: "qp-errors", Metric: "qp_errors", Kind: Threshold, Op: "gt", Value: 0},
		{Name: "watchdog", Metric: "ops_completed", Kind: NoProgress, For: 2 * sim.Millisecond, While: "outstanding_ops"},
		// retry-storm watches every per-QP retransmission counter the
		// NIC health report exposes, one alert state per QP: a sustained
		// go-back-N storm on one connection fires without the aggregate
		// retransmissions counter having to cross anything.
		{Name: "retry-storm", Metric: "qp*_retransmissions", Kind: Rate, Op: "gt", Value: 20, For: 500 * sim.Microsecond},
		// op-latency-p99 is the histogram-quantile rule: it watches the
		// KV dataplane's client-level op latency histograms (registry
		// metrics, evaluated at registry scrapes) and fires when the
		// trailing p99 exceeds 2 ms of simulated time — crash failover
		// and incast storms push it over, a clean run stays far under.
		{Name: "op-latency-p99", Metric: "kv_op_latency_ps*", Kind: Quantile, Q: 0.99, Op: "gt", Value: 2e9},
		// torn-read watches the KV client's torn-read detections (CRC
		// mismatch or slot/extent version skew on a spilled value). The
		// counter only moves when the consistency kernel catches a read
		// racing an in-place extent overwrite, so one detection inside
		// the window fires it and a clean run stays silent.
		{Name: "torn-read", Metric: "kv_torn_detected", Kind: Rate, Op: "gt", Value: 0.5, For: 500 * sim.Microsecond},
	}
}

// compare applies the rule's operator.
func (r *Rule) compare(v float64) bool {
	switch r.Op {
	case "", "gt":
		return v > r.Value
	case "ge":
		return v >= r.Value
	case "lt":
		return v < r.Value
	case "le":
		return v <= r.Value
	case "eq":
		return v == r.Value
	}
	return false
}

// rateSample is one point of a Rate rule's trailing window.
type rateSample struct {
	at sim.Time
	v  uint64
}

// alertState is the evaluation state of one (rule, object) pair.
type alertState struct {
	rule *Rule

	active       bool
	fired        uint64
	pending      bool     // Threshold: condition currently true
	pendingSince sim.Time // ... since this scrape
	window       []rateSample
	lastValue    uint64   // NoProgress: last observed metric value
	lastChange   sim.Time // ... and when it last advanced (or was gated)
	seen         bool
}

// AlertSummary is the final per-(rule, object) tally.
type AlertSummary struct {
	Rule   string `json:"rule"`
	Object string `json:"object"`
	Fired  uint64 `json:"fired"`
	Active bool   `json:"active"`
}

// alertPayload is the JSON payload of an "alert"/"resolve" event.
type alertPayload struct {
	Rule   string  `json:"rule"`
	Object string  `json:"object"`
	Metric string  `json:"metric"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
}

// alerter evaluates one rule set against the sources of one scraper
// (one engine shard). Each (rule, object, metric) triple has
// independent state — a glob rule matching several metrics of one
// source tracks each independently; evaluation order — rules in
// declaration order per source, matched metrics in sorted order,
// sources in registration order — is deterministic.
type alerter struct {
	rules  []Rule
	states map[stateKey]*alertState
	// metrics records, per (rule, object), the matched metric names in
	// first-seen order, so summaries fold per-metric states without
	// depending on map iteration order.
	metrics map[alertKey][]string
}

type alertKey struct {
	rule   int
	object string
}

type stateKey struct {
	rule   int
	object string
	metric string
}

func newAlerter(rules []Rule) *alerter {
	return &alerter{
		rules:   rules,
		states:  make(map[stateKey]*alertState),
		metrics: make(map[alertKey][]string),
	}
}

// metricMatch reports whether name matches pattern; a single '*' in the
// pattern matches any (possibly empty) substring.
func metricMatch(pattern, name string) bool {
	i := strings.IndexByte(pattern, '*')
	if i < 0 {
		return pattern == name
	}
	pre, suf := pattern[:i], pattern[i+1:]
	return len(name) >= len(pre)+len(suf) &&
		strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf)
}

// matchedMetrics returns the report's metric names matching a glob
// pattern, in sorted order.
func matchedMetrics(pattern string, r *report) []string {
	var out []string
	for _, c := range r.counters {
		if metricMatch(pattern, c.key) {
			out = append(out, c.key)
		}
	}
	for _, g := range r.gauges {
		if _, dup := findKV(r.counters, g.key); !dup && metricMatch(pattern, g.key) {
			out = append(out, g.key)
		}
	}
	sort.Strings(out)
	return out
}

// state returns the evaluation state for (rule i, object, metric),
// creating it (and recording the metric's first-seen order) on demand.
func (a *alerter) state(i int, object, metric string) *alertState {
	k := stateKey{rule: i, object: object, metric: metric}
	st := a.states[k]
	if st == nil {
		st = &alertState{rule: &a.rules[i]}
		a.states[k] = st
		pk := alertKey{rule: i, object: object}
		a.metrics[pk] = append(a.metrics[pk], metric)
	}
	return st
}

// boundRule is one (rule, metric) match of a source's report, resolved
// to the state it advances and to where its inputs sit in the report, so
// that a steady-state scrape evaluates its rules without a map lookup.
type boundRule struct {
	st     *alertState
	metric string
	val    metricRef
	// gate is the rule's While metric; gated is false when the rule has
	// a While the report does not carry (the watchdog stays disarmed).
	gate  metricRef
	gated bool
}

// bind resolves which rules src's current report matches, in evaluation
// order. Quantile rules are registry-scrape concerns (evalQuantile) and
// never match here.
func (a *alerter) bind(src *source) {
	src.bound = src.bound[:0]
	add := func(i int, metric string) {
		b := boundRule{st: a.state(i, src.object, metric), metric: metric}
		b.val, _ = src.cur.find(metric)
		if w := a.rules[i].While; w != "" {
			b.gate, b.gated = src.cur.find(w)
		}
		src.bound = append(src.bound, b)
	}
	for i := range a.rules {
		r := &a.rules[i]
		if r.Object != "" && r.Object != src.object {
			continue
		}
		if r.Kind == Quantile {
			continue
		}
		if strings.IndexByte(r.Metric, '*') >= 0 {
			for _, m := range matchedMetrics(r.Metric, &src.cur) {
				add(i, m)
			}
			continue
		}
		if _, ok := src.cur.find(r.Metric); ok {
			add(i, r.Metric)
		}
	}
	src.isBound = true
}

// eval runs every matching rule against src's current report and reports
// fire/resolve transitions via emit. The rules are matched against the
// report once and again only when its metric names change (source.load).
func (a *alerter) eval(now sim.Time, src *source, emit func(typ string, p alertPayload)) {
	if !src.isBound {
		a.bind(src)
	}
	for i := range src.bound {
		b := &src.bound[i]
		gate := true
		if b.st.rule.While != "" {
			gate = b.gated && src.cur.value(b.gate) > 0
		}
		b.st.advance(now, src.object, b.metric, src.cur.value(b.val), gate, emit)
	}
}

// advance moves one (rule, object, metric) state on with the metric's
// fresh value and emits the fire/resolve transition. gate is the
// NoProgress rule's While condition.
func (st *alertState) advance(now sim.Time, object, metric string, v float64, gate bool, emit func(typ string, p alertPayload)) {
	r := st.rule
	var cond bool
	val := v
	switch r.Kind {
	case Threshold, Quantile:
		cond = r.compare(v)
		if cond && !st.pending {
			st.pending, st.pendingSince = true, now
		}
		if !cond {
			st.pending = false
		}
		cond = cond && now.Sub(st.pendingSince) >= r.For
	case Rate:
		cv := uint64(v)
		// Trim the window in place to the trailing For horizon, keeping
		// one sample at or beyond the boundary as the rate base.
		w := st.window
		drop := 0
		for len(w)-drop >= 2 && w[drop+1].at <= now-sim.Time(r.For) {
			drop++
		}
		if drop > 0 {
			w = w[:copy(w, w[drop:])]
		}
		if len(w) > 0 {
			span := now.Sub(w[0].at)
			if span >= r.For && span > 0 {
				val = float64(cv-w[0].v) / (float64(span) / float64(sim.Millisecond))
				cond = r.compare(val)
			}
		}
		st.window = append(w, rateSample{at: now, v: cv})
	case NoProgress:
		cv := uint64(v)
		if !st.seen || cv != st.lastValue || !gate {
			st.lastValue, st.lastChange = cv, now
		}
		st.seen = true
		cond = gate && now.Sub(st.lastChange) >= r.For
		val = float64(now.Sub(st.lastChange)) / float64(sim.Millisecond)
	}
	switch {
	case cond && !st.active:
		st.active = true
		st.fired++
		emit("alert", alertPayload{Rule: r.Name, Object: object, Metric: metric, Kind: r.Kind.String(), Value: val})
	case !cond && st.active:
		st.active = false
		emit("resolve", alertPayload{Rule: r.Name, Object: object, Metric: metric, Kind: r.Kind.String(), Value: val})
	}
}

// evalQuantile advances the Quantile rules against one histogram of a
// scraped registry: key is the full histogram key, q the histogram's
// quantile function. object names the registry in alert events.
func (a *alerter) evalQuantile(now sim.Time, object, key string, q func(float64) float64, emit func(typ string, p alertPayload)) {
	for i := range a.rules {
		r := &a.rules[i]
		if r.Kind != Quantile || !metricMatch(r.Metric, key) {
			continue
		}
		if r.Object != "" && r.Object != object {
			continue
		}
		a.state(i, object, key).advance(now, object, key, q(r.Q), true, emit)
	}
}

// hasQuantile reports whether any rule needs histogram evaluation.
func (a *alerter) hasQuantile() bool {
	for i := range a.rules {
		if a.rules[i].Kind == Quantile {
			return true
		}
	}
	return false
}

// summaries returns the per-(rule, object) tallies — per-metric states
// folded by summing fires and OR-ing active — in deterministic (rule
// declaration, object registration, metric first-seen) order. objects
// lists the scraper's source objects in registration order, followed by
// its registry objects.
func (a *alerter) summaries(objects []string) []AlertSummary {
	var out []AlertSummary
	for i := range a.rules {
		for _, obj := range objects {
			ms, ok := a.metrics[alertKey{rule: i, object: obj}]
			if !ok {
				continue
			}
			sum := AlertSummary{Rule: a.rules[i].Name, Object: obj}
			for _, m := range ms {
				st := a.states[stateKey{rule: i, object: obj, metric: m}]
				sum.Fired += st.fired
				sum.Active = sum.Active || st.active
			}
			out = append(out, sum)
		}
	}
	return out
}
