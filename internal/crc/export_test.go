package crc

// Reset restores the initial state.
func (d *Digest64) Reset() { d.crc = 0 }
