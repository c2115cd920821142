package kvserve

import (
	"errors"
	"fmt"

	"strom/internal/core"
	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/roce"
	"strom/internal/sim"
)

// ConsistencyOp is the RPC op-code the cluster deploys the consistency
// kernel under on every server NIC.
const ConsistencyOp uint64 = 0x03

// readPair is one posting stage on one replica: the key's slot READ and
// the consistency-kernel read of the extent at extVA, back to back on
// the replica's QP under one deadline, the client parked once. The slot
// and the kernel's object and status word land in the session's two
// landing areas. The responder executes the READ before it dispatches
// the kernel, so the slot is sampled no later than the extent. The
// kernel DMA-reads the extent, verifies its CRC64 in the NIC pipeline
// (re-reading over PCIe on mismatch) and RDMA-writes object and status
// back.
//
// A slot error leaves the slot unread and the kernel's answer unpolled.
// An extent error is transport trouble, or consistency.ErrInconsistent
// when the CRC never settled, the corruption class of torn read. The
// slot's value aliases the session scratch, where pairRead copied it as
// it landed; obj is the kernel read's own copy.
func (c *Client) readPair(p *sim.Process, sess *session, server int, slotVA, extVA hostmem.Addr) (slot Slot, obj []byte, slotErr, extErr error) {
	cn := &c.conns[server]
	c.Stats.SpilledReads++
	j := &sess.join
	j.pending, j.done = 2, sim.Completion[struct{}]{}
	deadline := p.Now().Add(c.deadline)
	params := consistency.Params{
		ObjectAddress:   uint64(extVA),
		ObjectSize:      ExtentSize,
		ResponseAddress: uint64(sess.read),
		MaxRetries:      2,
		Deadline:        deadline,
	}
	c.m.NIC.Post(cn.qpc, core.Verb{Op: core.OpRead, RemoteVA: uint64(slotVA), LocalVA: uint64(sess.pair), Len: SlotSize, RKey: cn.rkey, Deadline: deadline}, sess.pairRead)
	if perr := consistency.Post(c.m.NIC, cn.qpc, ConsistencyOp, params, j.cb[1]); perr != nil {
		j.cb[1](perr)
	}
	j.done.Wait(p)
	if slotErr = j.errs[0]; slotErr != nil {
		return Slot{}, nil, slotErr, nil
	}
	if extErr = j.errs[1]; extErr == nil {
		obj, extErr = consistency.Poll(p, c.m.NIC, params)
	}
	return DecodeSlot(sess.buf[:SlotSize]), obj, nil, extErr
}

// getSpilled reads a spilled key on one replica, one pair (readPair) at
// a time, starting at arena offset off: the ledger's, or the one a slot
// named. The offset is only a hint; the slot decides:
//
//   - behind the highest acked version → stale: rerouted (ErrStale);
//   - not spilled → an inline write or tombstone overtook the spill, and
//     the caller serves the slot through the inline path;
//   - spilled at another offset → on the first pair, a wrong hint: the
//     pair again at the slot's offset, never a byte served from the
//     extent the hint named; later, the key's extent was freed and
//     re-allocated between two pairs (TornReused);
//   - spilled at off → the prefetched extent is cross-checked.
//
// Kernel CRC failure (ErrInconsistent) or a host-side CRC/header mismatch
// is corruption (TornCorrupt), an extent key ≠ slot key an arena offset
// recycled to another key (TornReused), an extent version above the
// slot's a concurrent overwrite (TornOverwrite, the common race). An
// extent version below the slot's is a stale replica (TornStaleRep),
// which the publish ordering rules out on a healthy replica, only if the
// pair before or after it on the replica finds it behind too. A READ
// re-executed from live memory after its response was lost returns a
// slot published after the kernel sampled the extent and shows that
// skew once, so a detection no neighbour confirms counts as
// TornOverwrite.
//
// Every mismatch is a detected torn read: counted, classified, and the
// pair re-posted at the slot's offset under the torn budget with the
// client's backoff. Past the budget the replica is abandoned
// (TornFailovers) and the caller tries the next one. A torn value is
// never returned.
func (c *Client) getSpilled(p *sim.Process, sess *session, server int, key uint64, off int, want uint64) (Slot, []byte, error) {
	if c.down[server] {
		return Slot{}, nil, fmt.Errorf("%w: server %d marked down", ErrUnavailable, server)
	}
	sh := c.lay.ShardOf(key)
	srv := c.servers[server]
	arenaVA := srv.ArenaFor(c.lay, sh)
	slotVA := c.lay.SlotAddr(srv.TableFor(c.lay, sh), key)
	torn, xport := 0, 0
	hint := true    // off has not been checked against a slot yet
	behind := false // the last pair found the extent behind its slot
	settle := func(confirmed bool) {
		switch {
		case !behind:
		case confirmed:
			c.Stats.TornStaleRep++
		default:
			c.Stats.TornOverwrite++
		}
		behind = false
	}
	defer settle(false)
	for {
		slot, obj, slotErr, err := c.readPair(p, sess, server, slotVA, c.lay.ExtentAddr(arenaVA, off))
		if slotErr != nil || err != nil && !errors.Is(err, consistency.ErrInconsistent) {
			// Transport trouble, not a torn read: bounded retry with the
			// same recover machinery as any other verb. A slot READ
			// refused for another reason than a deadline or a QP error
			// fails the replica at once, as readSlot does: the per-QP read
			// limit is backpressure no retry on this QP relieves.
			if slotErr != nil {
				err = slotErr
				if !errors.Is(err, sim.ErrDeadlineExceeded) && !errors.Is(err, roce.ErrQPError) {
					return slot, nil, err
				}
			}
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
		if slot.Ver < want {
			c.Stats.StaleRerouted++
			return slot, nil, fmt.Errorf("%w: server %d at ver %d, acked %d", ErrStale, server, slot.Ver, want)
		}
		if slot.Flags&FlagSpilled == 0 {
			return slot, nil, nil
		}
		named, vlen, ok := DecodeSpillRef(slot.Val)
		if !ok {
			c.Stats.Misapplied++
			return slot, nil, fmt.Errorf("kvserve: key %d server %d: unparseable spill ref", key, server)
		}
		if hint && named != off {
			hint, off = false, named
			continue
		}
		hint = false
		var class *uint64
		var classname string
		ext := DecodeExtent(obj)
		switch {
		case named != off:
			class, classname = &c.Stats.TornReused, "reused"
		case err != nil, ext.Torn:
			class, classname = &c.Stats.TornCorrupt, "corrupt"
		case ext.Key != key:
			class, classname = &c.Stats.TornReused, "reused"
		case ext.Ver > slot.Ver:
			class, classname = &c.Stats.TornOverwrite, "overwrite"
		case ext.Ver < slot.Ver:
			classname = "behind"
		default:
			// Consistent: slot and extent agree on key and version.
			if len(ext.Val) != vlen {
				c.Stats.Misapplied++
			}
			// ext.Val aliases obj, the kernel read's own copy.
			return slot, ext.Val, nil
		}
		c.Stats.TornDetected++
		confirms := behind && class == nil
		settle(confirms)
		switch {
		case class != nil:
			*class++
		case confirms && torn >= tornBudget:
			c.Stats.TornStaleRep++ // no pair follows; the one before confirms it
		default:
			behind = true
		}
		if torn >= tornBudget {
			c.Stats.TornFailovers++
			return slot, nil, fmt.Errorf("%w: key %d server %d, class %s, %d attempts", ErrTorn, key, server, classname, torn+1)
		}
		torn++
		c.Stats.TornRetries++
		off = named
		p.Sleep(c.bo.Delay(torn-1, p.Engine().Rand()))
	}
}
