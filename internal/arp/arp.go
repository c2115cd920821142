// Package arp implements the Address Resolution Protocol module StRoM
// uses for seamless integration into Ethernet infrastructure (§4.1: "we
// use an open source module to handle the Address Resolution Protocol").
// The module answers requests for the NIC's own IP, resolves peer MACs
// on demand, and caches results in a bounded table — the same behaviour
// as the referenced FPGA module, driven by real ARP frames.
package arp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"strom/internal/packet"
	"strom/internal/sim"
)

// Frame sizes and constants.
const (
	// EtherTypeARP identifies ARP in the Ethernet header.
	EtherTypeARP = 0x0806
	// FrameLen is an ARP frame padded to the Ethernet minimum.
	FrameLen = 60
	// opRequest and opReply are the ARP operation codes.
	opRequest = 1
	opReply   = 2
)

// Errors.
var (
	ErrNotARP    = errors.New("arp: not an ARP frame")
	ErrTruncated = errors.New("arp: truncated frame")
	ErrTimeout   = errors.New("arp: resolution timed out")
)

// Message is a parsed ARP packet.
type Message struct {
	Op        uint16
	SenderMAC packet.MAC
	SenderIP  packet.IPv4
	TargetMAC packet.MAC
	TargetIP  packet.IPv4
}

// Encode serializes the message as an Ethernet frame. Requests broadcast;
// replies unicast to the requester.
func (m Message) Encode() []byte {
	buf := make([]byte, FrameLen)
	dst := m.TargetMAC
	if m.Op == opRequest {
		dst = packet.MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	}
	copy(buf[0:6], dst[:])
	copy(buf[6:12], m.SenderMAC[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeARP)
	p := buf[14:]
	binary.BigEndian.PutUint16(p[0:2], 1)      // HTYPE Ethernet
	binary.BigEndian.PutUint16(p[2:4], 0x0800) // PTYPE IPv4
	p[4], p[5] = 6, 4                          // HLEN, PLEN
	binary.BigEndian.PutUint16(p[6:8], m.Op)
	copy(p[8:14], m.SenderMAC[:])
	binary.BigEndian.PutUint32(p[14:18], uint32(m.SenderIP))
	copy(p[18:24], m.TargetMAC[:])
	binary.BigEndian.PutUint32(p[24:28], uint32(m.TargetIP))
	return buf
}

// Decode parses an ARP frame.
func Decode(buf []byte) (Message, error) {
	if len(buf) < 14+28 {
		return Message{}, ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[12:14]) != EtherTypeARP {
		return Message{}, ErrNotARP
	}
	p := buf[14:]
	var m Message
	m.Op = binary.BigEndian.Uint16(p[6:8])
	copy(m.SenderMAC[:], p[8:14])
	m.SenderIP = packet.IPv4(binary.BigEndian.Uint32(p[14:18]))
	copy(m.TargetMAC[:], p[18:24])
	m.TargetIP = packet.IPv4(binary.BigEndian.Uint32(p[24:28]))
	return m, nil
}

// IsARPFrame reports whether an Ethernet frame carries ARP.
func IsARPFrame(buf []byte) bool {
	return len(buf) >= 14 && binary.BigEndian.Uint16(buf[12:14]) == EtherTypeARP
}

// Module is the NIC's ARP handler: a bounded cache plus the
// request/reply state machine.
type Module struct {
	eng      *sim.Engine
	mac      packet.MAC
	ip       packet.IPv4
	transmit func([]byte)
	capacity int
	table    map[packet.IPv4]packet.MAC
	waiters  map[packet.IPv4][]*sim.Completion[packet.MAC]
	timeout  sim.Duration

	Requests uint64
	Replies  uint64
	Hits     uint64
	Misses   uint64
}

// New creates an ARP module for a NIC with the given identity. capacity
// bounds the cache (64 when 0), matching the fixed on-chip table.
func New(eng *sim.Engine, mac packet.MAC, ip packet.IPv4, transmit func([]byte), capacity int) *Module {
	if capacity <= 0 {
		capacity = 64
	}
	return &Module{
		eng:      eng,
		mac:      mac,
		ip:       ip,
		transmit: transmit,
		capacity: capacity,
		table:    make(map[packet.IPv4]packet.MAC),
		waiters:  make(map[packet.IPv4][]*sim.Completion[packet.MAC]),
		timeout:  2 * sim.Millisecond,
	}
}

// HandleFrame processes an incoming ARP frame: learn the sender, answer
// requests for our IP, resolve pending lookups on replies.
func (a *Module) HandleFrame(buf []byte) error {
	m, err := Decode(buf)
	if err != nil {
		return err
	}
	a.learn(m.SenderIP, m.SenderMAC)
	switch m.Op {
	case opRequest:
		if m.TargetIP != a.ip {
			return nil
		}
		a.Replies++
		a.transmit(Message{
			Op:        opReply,
			SenderMAC: a.mac,
			SenderIP:  a.ip,
			TargetMAC: m.SenderMAC,
			TargetIP:  m.SenderIP,
		}.Encode())
	case opReply:
		// learn already resolved any waiters.
	default:
		return fmt.Errorf("arp: unknown op %d", m.Op)
	}
	return nil
}

// learn inserts a mapping and wakes waiters.
func (a *Module) learn(ip packet.IPv4, mac packet.MAC) {
	if _, ok := a.table[ip]; !ok && len(a.table) >= a.capacity {
		// Bounded on-chip table: evict an arbitrary entry.
		for k := range a.table {
			delete(a.table, k)
			break
		}
	}
	a.table[ip] = mac
	for _, w := range a.waiters[ip] {
		if !w.IsDone() {
			w.Complete(mac)
		}
	}
	delete(a.waiters, ip)
}

// Resolve returns the MAC for ip, broadcasting a request and blocking the
// process if unknown.
func (a *Module) Resolve(p *sim.Process, ip packet.IPv4) (packet.MAC, error) {
	if mac, ok := a.table[ip]; ok {
		a.Hits++
		return mac, nil
	}
	a.Misses++
	a.Requests++
	c := &sim.Completion[packet.MAC]{}
	a.waiters[ip] = append(a.waiters[ip], c)
	a.transmit(Message{
		Op:        opRequest,
		SenderMAC: a.mac,
		SenderIP:  a.ip,
		TargetIP:  ip,
	}.Encode())
	timer := a.eng.Schedule(a.timeout, func() {
		if !c.IsDone() {
			c.Fail(ErrTimeout)
		}
	})
	mac, err := c.Wait(p)
	timer.Cancel()
	return mac, err
}
