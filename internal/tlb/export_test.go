package tlb

// Len reports the number of populated entries.
func (t *TLB) Len() int { return len(t.entries) }
