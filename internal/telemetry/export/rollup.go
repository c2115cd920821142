package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"

	"strom/internal/sim"
)

// errCounters is the arc-switch-style error set a rollup surfaces per
// object: everything here non-zero at end of stream is worth an
// operator's attention.
var errCounters = []string{
	"fcs_err", "out_discards", "out_discards_chaos", "out_discards_flap",
	"out_discards_offline", "in_discards",
	"stomped_crc", "remote_access_naks", "mr_violations", "qp_errors",
	"kernel_faults", "kernel_aborts", "dma_stalled", "timeouts",
	"retransmissions", "deadline_expired",
}

// ObjectRollup aggregates every health event of one scraped object.
type ObjectRollup struct {
	Host      string
	Subsystem string
	Object    string
	Scrapes   uint64
	FirstTS   sim.Time
	LastTS    sim.Time
	Final     map[string]uint64 // last scrape's counters
}

// AlertRecord is one alert/resolve event of the timeline.
type AlertRecord struct {
	TS     sim.Time
	Type   string // "alert" or "resolve"
	Rule   string
	Object string
	Metric string
	Value  float64
}

// Tail is the post-processed view of one JSONL stream: per-object
// rollups, the alert timeline, and the final alert summaries.
type Tail struct {
	Events    uint64
	FirstTS   sim.Time
	LastTS    sim.Time
	Objects   []*ObjectRollup // first-seen order
	Alerts    []AlertRecord   // stream order
	Summaries []AlertSummary  // from "summary" events, stream order
	Metrics   uint64          // registry "metrics" events seen
}

// ReadAll decodes a JSONL stream into a Tail. Undecodable lines are an
// error (the stream contract is one valid envelope per line); blank
// lines are skipped.
func ReadAll(r io.Reader) (*Tail, error) {
	t := &Tail{}
	byObject := make(map[string]*ObjectRollup)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := Decode(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if t.Events == 0 || sim.Time(ev.TS) < t.FirstTS {
			t.FirstTS = sim.Time(ev.TS)
		}
		if sim.Time(ev.TS) > t.LastTS {
			t.LastTS = sim.Time(ev.TS)
		}
		t.Events++
		switch ev.Type {
		case "health":
			var p healthPayload
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				return nil, fmt.Errorf("line %d: health payload: %w", lineNo, err)
			}
			key := ev.Host + "/" + ev.Subsystem + "/" + p.Object
			o := byObject[key]
			if o == nil {
				o = &ObjectRollup{Host: ev.Host, Subsystem: ev.Subsystem, Object: p.Object, FirstTS: sim.Time(ev.TS)}
				byObject[key] = o
				t.Objects = append(t.Objects, o)
			}
			o.Scrapes++
			o.LastTS = sim.Time(ev.TS)
			o.Final = p.Counters
		case "alert", "resolve":
			var p alertPayload
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				return nil, fmt.Errorf("line %d: alert payload: %w", lineNo, err)
			}
			t.Alerts = append(t.Alerts, AlertRecord{
				TS: sim.Time(ev.TS), Type: ev.Type,
				Rule: p.Rule, Object: p.Object, Metric: p.Metric, Value: p.Value,
			})
		case "summary":
			var s AlertSummary
			if err := json.Unmarshal(ev.Data, &s); err != nil {
				return nil, fmt.Errorf("line %d: summary payload: %w", lineNo, err)
			}
			t.Summaries = append(t.Summaries, s)
		case "metrics":
			t.Metrics++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Fired sums an alert rule's fire count over the stream's summaries
// (falling back to counting timeline fires when no summary was
// emitted).
func (t *Tail) Fired(rule string) uint64 {
	var n uint64
	seen := false
	for _, s := range t.Summaries {
		if s.Rule == rule {
			n += s.Fired
			seen = true
		}
	}
	if seen {
		return n
	}
	for _, a := range t.Alerts {
		if a.Type == "alert" && a.Rule == rule {
			n++
		}
	}
	return n
}

// UnexpectedAlerts returns the names of rules that fired but do not
// match allow (nil allow = nothing is expected).
func (t *Tail) UnexpectedAlerts(allow *regexp.Regexp) []string {
	fired := make(map[string]bool)
	for _, a := range t.Alerts {
		if a.Type == "alert" {
			fired[a.Rule] = true
		}
	}
	for _, s := range t.Summaries {
		if s.Fired > 0 {
			fired[s.Rule] = true
		}
	}
	var out []string
	for rule := range fired {
		if allow == nil || !allow.MatchString(rule) {
			out = append(out, rule)
		}
	}
	sort.Strings(out)
	return out
}

// FiredAlerts returns the names of every rule that fired, sorted.
func (t *Tail) FiredAlerts() []string {
	return t.UnexpectedAlerts(regexp.MustCompile(`\A\z`))
}

// Render writes the human-readable rollup: stream span, per-object
// scrape counts with non-zero error counters, the alert timeline and
// the final summaries.
func (t *Tail) Render(w io.Writer) {
	fmt.Fprintf(w, "stream: %d events, %d objects, %v .. %v\n",
		t.Events, len(t.Objects), t.FirstTS, t.LastTS)
	if t.Metrics > 0 {
		fmt.Fprintf(w, "registry: %d metrics events\n", t.Metrics)
	}
	for _, o := range t.Objects {
		fmt.Fprintf(w, "%-8s %-6s %-12s %5d scrapes", o.Host, o.Subsystem, o.Object, o.Scrapes)
		errs := ""
		for _, name := range errCounters {
			if v := o.Final[name]; v > 0 {
				errs += fmt.Sprintf(" %s=%d", name, v)
			}
		}
		if errs == "" {
			errs = " clean"
		}
		fmt.Fprintf(w, "%s\n", errs)
	}
	if len(t.Alerts) > 0 {
		fmt.Fprintln(w, "alerts:")
		for _, a := range t.Alerts {
			verb := "FIRE   "
			if a.Type == "resolve" {
				verb = "RESOLVE"
			}
			fmt.Fprintf(w, "  [%12v] %s %-14s %-12s %s=%.3g\n", a.TS, verb, a.Rule, a.Object, a.Metric, a.Value)
		}
	}
	if len(t.Summaries) > 0 {
		fmt.Fprintln(w, "summary:")
		for _, s := range t.Summaries {
			state := ""
			if s.Active {
				state = " (still active)"
			}
			fmt.Fprintf(w, "  %-14s %-12s fired=%d%s\n", s.Rule, s.Object, s.Fired, state)
		}
	}
}
