package cpu

// Bytes reports the total bytes ingested.
func (s *SoftwareHLL) Bytes() uint64 { return s.bytes }
