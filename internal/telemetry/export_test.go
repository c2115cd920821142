package telemetry

// Value returns the current count (zero for the nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Value returns the current value (zero for the nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Len reports the number of recorded events across all segments.
func (t *TraceBuffer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, s := range t.shared.segs {
		n += len(s.events)
	}
	return n
}
