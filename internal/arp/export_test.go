package arp

import "strom/internal/packet"

// Lookup returns the cached MAC for an IP.
func (a *Module) Lookup(ip packet.IPv4) (packet.MAC, bool) {
	mac, ok := a.table[ip]
	return mac, ok
}

// Len reports the number of cached entries.
func (a *Module) Len() int { return len(a.table) }
