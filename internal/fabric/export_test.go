package fabric

// Stats returns a snapshot of the NIC-side counters.
func (p *Port) Stats() PortStats { return p.stats }
