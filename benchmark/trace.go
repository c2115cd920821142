package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"strom/internal/sim"
)

// span is one benchmark-side interval around a call into a layer, on
// both clocks. Spans of one op share its op id; Parent is the span that
// caused this one (-1 for a root).
type span struct {
	Name      string `json:"name"`
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Op        int    `json:"op"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	SimStart  int64  `json:"sim_start_ps"`
	SimEnd    int64  `json:"sim_end_ps"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced rounds pay one compare per call.
type spanLog struct {
	t0    time.Time
	spans []span
	root  int32 // parent of the spans a driver opens: the current round
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), root: -1} }

// begin opens a span under the current round.
func (l *spanLog) begin(name string, op int, at sim.Time) int32 {
	if l == nil {
		return -1
	}
	return l.beginUnder(name, l.root, op, at)
}

// beginUnder opens a span under an explicit parent.
func (l *spanLog) beginUnder(name string, parent int32, op int, at sim.Time) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		HostStart: time.Since(l.t0).Nanoseconds(), SimStart: int64(at),
	})
	return id
}

func (l *spanLog) end(id int32, at sim.Time) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].HostEnd = time.Since(l.t0).Nanoseconds()
	l.spans[id].SimEnd = int64(at)
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	Count  int   `json:"count"`
	HostNS int64 `json:"host_ns"`      // summed span durations
	SelfNS int64 `json:"host_self_ns"` // durations minus the part child spans cover
	SimPS  int64 `json:"sim_ps"`
}

// selfTimes computes, per span name, the summed duration and the self
// time: each span's host duration minus the part of that interval its
// child spans cover (overlapping children are counted once).
func (l *spanLog) selfTimes() map[string]*layerTime {
	children := make(map[int32][]int32)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range l.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.HostEnd - s.HostStart
		lt.Count++
		lt.HostNS += dur
		lt.SimPS += s.SimEnd - s.SimStart
		lt.SelfNS += dur - l.cover(s, children[s.ID])
	}
	return out
}

// cover is the length of the union of the children's host intervals,
// clipped to the parent.
func (l *spanLog) cover(parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return l.spans[kids[i]].HostStart < l.spans[kids[j]].HostStart })
	var covered int64
	edge := parent.HostStart
	for _, k := range kids {
		lo, hi := l.spans[k].HostStart, l.spans[k].HostEnd
		if lo < edge {
			lo = edge
		}
		if hi > parent.HostEnd {
			hi = parent.HostEnd
		}
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return covered
}

// maxSpansWritten bounds the span file; the per-name aggregates cover
// every span regardless.
const maxSpansWritten = 20000

// write stores the aggregates and the first spans as JSON.
func (l *spanLog) write(path string, env environment) error {
	spans := l.spans
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	doc := struct {
		Env        environment           `json:"env"`
		Layers     map[string]*layerTime `json:"layers"`
		SpansTotal int                   `json:"spans_total"`
		Spans      []span                `json:"spans"`
	}{env, l.selfTimes(), len(l.spans), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
