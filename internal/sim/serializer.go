package sim

// Serializer models a resource that handles one transfer at a time at a
// fixed rate: a network wire, a PCIe direction, a memory-mapped doorbell
// path. Reservations queue up back-to-back, which is exactly the behaviour
// of a store-and-forward pipeline's output stage.
type Serializer struct {
	eng      *Engine
	nextFree Time
	busyPS   int64 // accumulated busy picoseconds, for utilisation stats
}

// NewSerializer returns a serializer bound to an engine.
func NewSerializer(eng *Engine) *Serializer {
	return &Serializer{eng: eng}
}

// Reserve books d of exclusive time on the resource starting no earlier
// than the current time and returns the time the reservation completes.
func (s *Serializer) Reserve(d Duration) Time {
	start := s.eng.Now()
	if s.nextFree > start {
		start = s.nextFree
	}
	end := start.Add(d)
	s.nextFree = end
	s.busyPS += int64(d)
	return end
}

// NextFree reports when the resource becomes idle.
func (s *Serializer) NextFree() Time { return s.nextFree }

// Utilisation reports busy time divided by elapsed time since start.
func (s *Serializer) Utilisation() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(s.busyPS) / float64(now)
}
