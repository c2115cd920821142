package kvserve

import (
	"errors"
	"fmt"

	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/sim"
)

// ConsistencyOp is the RPC op-code the cluster deploys the consistency
// kernel under on every server NIC.
const ConsistencyOp uint64 = 0x03

// readExtent performs one consistency-kernel read of the extent at
// extVA on server: the kernel DMA-reads the extent, verifies its CRC64
// in the NIC pipeline (re-reading over PCIe on mismatch), and RDMA-
// writes the object plus a status word back into the session's landing
// area. consistency.ErrInconsistent means the CRC never settled — the
// corruption class of torn read.
func (c *Client) readExtent(p *sim.Process, sess *session, server int, extVA hostmem.Addr) ([]byte, error) {
	cn := &c.conns[server]
	c.Stats.SpilledReads++
	return consistency.Read(p, c.m.NIC, cn.qpc, ConsistencyOp, consistency.Params{
		ObjectAddress:   uint64(extVA),
		ObjectSize:      ExtentSize,
		ResponseAddress: uint64(sess.read),
		MaxRetries:      2,
		Deadline:        p.Now().Add(c.deadline),
	})
}

// getSpilled resolves a spilled slot on one replica. The slot was read
// at some version v; the extent it points to is then read through the
// consistency kernel, and the two are cross-checked:
//
//   - kernel CRC failure (ErrInconsistent) or a host-side CRC/header
//     mismatch → corruption: the extent image is not any published
//     state;
//   - extent key ≠ slot key → the arena offset was recycled to another
//     key between the slot read and the extent read;
//   - extent version > slot version → a concurrent overwriter published
//     past our slot read (the common race);
//   - extent version < slot version → the replica holds a slot that ran
//     ahead of its extent — stale replica state, which the publish
//     ordering makes impossible on a healthy replica and chaos can
//     still manufacture across crash/repair windows.
//
// Every mismatch is a detected torn read: counted, classified, and
// retried — slot re-read included, since the truth may have moved —
// under the torn budget with the client's backoff. Past the budget the
// replica is abandoned (TornFailovers) and the caller tries the next
// one. A torn value is never returned.
func (c *Client) getSpilled(p *sim.Process, sess *session, server int, key uint64, slot Slot, want uint64) (Slot, []byte, error) {
	sh := c.lay.ShardOf(key)
	srv := c.servers[server]
	arenaVA := srv.ArenaFor(c.lay, sh)
	slotVA := c.lay.SlotAddr(srv.TableFor(c.lay, sh), key)
	torn, xport := 0, 0
	for {
		if slot.Flags&FlagSpilled == 0 {
			// An inline write or tombstone overtook the spill; the caller
			// serves the slot through the inline path.
			return slot, nil, nil
		}
		off, vlen, ok := DecodeSpillRef(slot.Val)
		if !ok {
			c.Stats.Misapplied++
			return slot, nil, fmt.Errorf("kvserve: key %d server %d: unparseable spill ref", key, server)
		}
		obj, err := c.readExtent(p, sess, server, c.lay.ExtentAddr(arenaVA, off))
		if err != nil && !errors.Is(err, consistency.ErrInconsistent) {
			// Transport trouble, not a torn read: bounded retry with the
			// same recover machinery as any other verb.
			xport++
			if xport >= maxAttempts {
				return slot, nil, err
			}
			c.Stats.Retries++
			if rerr := c.recover(p, server, xport-1); rerr != nil {
				c.MarkDown(server)
				return slot, nil, rerr
			}
			continue
		}
		var class *uint64
		var classname string
		if err != nil {
			class, classname = &c.Stats.TornCorrupt, "corrupt"
		} else {
			ext := DecodeExtent(obj)
			switch {
			case ext.Torn:
				class, classname = &c.Stats.TornCorrupt, "corrupt"
			case ext.Key != key:
				class, classname = &c.Stats.TornReused, "reused"
			case ext.Ver > slot.Ver:
				class, classname = &c.Stats.TornOverwrite, "overwrite"
			case ext.Ver < slot.Ver:
				class, classname = &c.Stats.TornStaleRep, "stale-replica"
			default:
				// Consistent: slot and extent agree on key and version.
				if len(ext.Val) != vlen {
					c.Stats.Misapplied++
				}
				// ext.Val aliases obj, the kernel read's own copy.
				return slot, ext.Val, nil
			}
		}
		c.Stats.TornDetected++
		*class++
		if torn >= tornBudget {
			c.Stats.TornFailovers++
			return slot, nil, fmt.Errorf("%w: key %d server %d, class %s, %d attempts", ErrTorn, key, server, classname, torn+1)
		}
		torn++
		c.Stats.TornRetries++
		p.Sleep(c.bo.Delay(torn-1, p.Engine().Rand()))
		// Re-read the slot: the racing publish (or repair) that tore us
		// has likely completed, and slot and extent now agree.
		s2, rerr := c.getReplica(p, sess, server, slotVA)
		if rerr != nil {
			return slot, nil, rerr
		}
		if s2.Ver < want {
			c.Stats.StaleRerouted++
			return s2, nil, fmt.Errorf("%w: server %d at ver %d, acked %d", ErrStale, server, s2.Ver, want)
		}
		slot = s2
	}
}
