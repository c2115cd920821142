package stats

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[0]
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}
