package kvserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"strom/internal/core"
	"strom/internal/hostmem"
	"strom/internal/kvstore"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/testrig"
)

// Stats counts the client's protocol activity. StaleServed, Misapplied
// and TornServed are the guarantee counters: they must stay zero on any
// run (they mean a Get returned data older than an acked write, a slot
// held bytes no issued write could have produced, or a torn large value
// crossed the serve boundary), while DupSuppressed, StaleRerouted and
// the Torn* detection counters count the times the protocol had to work
// to keep them zero.
type Stats struct {
	Puts        uint64 // Put/Delete operations issued
	AckedPuts   uint64 // Puts acked by at least one replica
	UnackedPuts uint64 // Puts no replica accepted (client surfaced an error)
	Deletes     uint64 // subset of Puts that were tombstone writes
	LargePuts   uint64 // subset of Puts that spilled to an extent
	Gets        uint64 // Get operations issued
	GetMisses   uint64 // Gets finding no write (empty slot)
	GetFailures uint64 // Gets that could not reach any replica

	Retries       uint64 // per-replica verb retries after an error
	Reconnects    uint64 // successful QP re-establishments
	RKeyRefetches uint64 // rkey re-fetches (rotation after a restart)
	Failovers     uint64 // Gets served by the non-primary replica
	Repairs       uint64 // deficit slots re-replicated after a failover
	Downs         uint64 // shard-map transitions to down
	Ups           uint64 // shard-map transitions back up

	DupSuppressed uint64 // ambiguous retries resolved by the version probe
	StaleRerouted uint64 // stale replica reads detected and rerouted

	SpilledReads  uint64 // pairs posted: slot READ + consistency-kernel extent read
	TornDetected  uint64 // torn reads detected (CRC fail or slot/extent skew)
	TornRetries   uint64 // torn reads retried under the budget
	TornFailovers uint64 // replicas abandoned after the torn budget ran dry
	TornOverwrite uint64 // class: concurrent overwrite (extent ahead of slot, or behind it once)
	TornReused    uint64 // class: arena offset recycled to another key
	TornStaleRep  uint64 // class: extent behind slot on neighbouring pairs (stale replica state)
	TornCorrupt   uint64 // class: CRC mismatch survived the kernel re-reads
	OrphansReaped uint64 // unpublished extent images destroyed by overwrite/free

	StaleServed uint64 // VIOLATION: all replicas behind an acked write
	Misapplied  uint64 // VIOLATION: slot/extent bytes not equal to the value fn
	TornServed  uint64 // VIOLATION: a torn large value crossed the serve boundary
}

// conn is the client's connection to one server.
type conn struct {
	qpc  uint32 // client-side QPN
	qps  uint32 // server-side QPN
	rkey uint32 // cached rkey of the server's buffer region
}

// session is one in-flight operation's slice of the client buffer: a
// slot staging area, an extent staging area, a landing area big enough
// for an extent plus the consistency kernel's status word, and a slot
// landing area for a spilled Get's pair (readPair), whose kernel answers
// into the other one. No write stages from a landing area: a READ whose
// deadline passed still lands when its response finally arrives, and in
// a staging area it would become the payload of a later op's WRITE. Ops
// acquire a session at entry and release it on return, so concurrent
// client processes (the chaos regime's racing overwriter) never clobber
// each other's staged bytes.
type session struct {
	slot hostmem.Addr // SlotSize staging for slot writes
	ext  hostmem.Addr // ExtentSize staging for extent writes
	read hostmem.Addr // ExtentSize+16 landing area for reads and kernel responses
	pair hostmem.Addr // SlotSize landing area for a spilled Get's slot READ

	// buf is the session's host-side scratch: a write encodes its value
	// and images here on the way to the staging areas, a read copies the
	// landing area out into it. Slices of it die with the op. Sized for
	// the largest tenant, a large value followed by its extent image.
	buf  [LargeValCap + ExtentSize]byte
	join join

	// pairRead completes a pair's slot READ in join slot 0, copying the
	// slot out of the pair area into buf the instant it lands: the kernel
	// RPC may complete later, and a READ of an earlier op that missed its
	// deadline may land on the area in between.
	pairRead func(error)
}

// sessionBytes is the client-buffer footprint of one session.
const sessionBytes = SlotSize + ExtentSize + ExtentSize + 16 + SlotSize

// join collects the completions of the verbs one posting stage posts
// together: for a write attempt, per replica i the extent WRITE's in slot
// 2i and the slot WRITE's in 2i+1; for a spilled Get's pair, the slot
// READ's in 0 and the kernel RPC's in 1. It lives in the session with
// its callbacks built once, so a stage allocates nothing. That is sound
// because a posted verb completes exactly once (the NIC's deadline guard
// swallows a late transport completion) and a stage waits for all its
// posts before the next begins.
type join struct {
	pending int
	errs    [4]error
	cb      [4]func(error)
	done    sim.Completion[struct{}]
}

func newSession(mem *hostmem.Memory, base hostmem.Addr) *session {
	read := base + SlotSize + ExtentSize
	s := &session{slot: base, ext: base + SlotSize, read: read, pair: read + ExtentSize + 16}
	j := &s.join
	for i := range j.cb {
		j.cb[i] = func(err error) {
			j.errs[i] = err
			if j.pending--; j.pending == 0 {
				j.done.Complete(struct{}{})
			}
		}
	}
	s.pairRead = func(err error) {
		if err == nil {
			err = mem.ReadVirtInto(s.pair, s.buf[:SlotSize])
		}
		j.cb[0](err)
	}
	return s
}

// opKind discriminates the put body's three shapes.
type opKind int

const (
	opInline opKind = iota
	opDelete
	opLarge
)

// extRef tracks a spilled key's arena extent: the offset (the same in
// every replica's arena — the client is the only allocator) and, per
// server, the highest version written into that replica's extent and
// the highest version whose pointer slot was published there. wrote >
// pub is an orphan: extent content no published slot references, which
// only a torn read can reach and detection refuses to serve.
type extRef struct {
	off   int
	wrote []uint64
	pub   []uint64
}

// Client is the KV dataplane's requester: it owns the shard map, the
// version counters, and the exactly-once retry protocol.
//
// Exactly-once for retried Puts works by making every write
// self-describing: a Put carries a per-key version the client issued
// exactly once, so a retry can first READ the slot's version field —
// if the slot already holds a version >= the one being retried, the
// earlier, ambiguous attempt actually landed and the retry is
// suppressed instead of re-applied. Combined with the responder's
// in-order PSN application (a late retransmission can never overtake a
// newer write on the same QP) this means no acked Put is ever applied
// twice or regressed.
//
// Large values (see extent.go) add the publish ordering: the extent is
// written before the slot on the same QP, so a published slot always
// has its extent behind it; the remaining race — slot read at version
// v, extent overwritten before the kernel read — is detected, never
// served.
type Client struct {
	net     *testrig.Net
	lay     Layout
	idx     int // client machine index
	m       *testrig.NetMachine
	servers []*Server
	conns   []conn

	down      []bool              // shard map health, per server
	repairDue []bool              // server came back with a deficit to drain
	deficits  []map[uint64]uint64 // per server: key -> version owed

	pool []*session // free sessions, LIFO

	issued  map[uint64]uint64          // per key: highest version handed out
	acked   map[uint64]uint64          // per key: highest version acked
	deleted map[uint64]map[uint64]bool // key -> versions that were tombstones
	larges  map[uint64]map[uint64]bool // key -> versions that spilled to an extent
	ext     map[uint64]*extRef         // spilled keys' live extents
	arenas  []*kvstore.FixedArena      // per shard: extent offset allocator

	bo       sim.Backoff
	deadline sim.Duration

	reg       *telemetry.Registry
	histPut   *telemetry.Histogram
	histGet   *telemetry.Histogram
	histLarge *telemetry.Histogram // lazily registered on first PutLarge
	PutLat    []sim.Duration       // per-acked-Put latency samples
	GetLat    []sim.Duration       // per-successful-Get latency samples

	Stats Stats
}

// Issued returns the highest version issued for key (0 if none).
func (c *Client) Issued(key uint64) uint64 { return c.issued[key] }

// Acked returns the highest version acked for key (0 if none).
func (c *Client) Acked(key uint64) uint64 { return c.acked[key] }

// Down reports whether the shard map currently marks server down.
func (c *Client) Down(server int) bool { return c.down[server] }

// LiveExtents reports the number of keys currently holding an extent.
func (c *Client) LiveExtents() int { return len(c.ext) }

// MarkDown flips a server to down in the shard map. Called by the
// telemetry failover controller when the heartbeat watchdog fires, and
// by the client itself when a reconnect reports the peer crashed.
func (c *Client) MarkDown(server int) {
	if server < 0 || server >= len(c.down) || c.down[server] {
		return
	}
	c.down[server] = true
	c.Stats.Downs++
}

// MarkUp flips a server back up and schedules a repair pass if any
// writes were owed to it while it was out.
func (c *Client) MarkUp(server int) {
	if server < 0 || server >= len(c.down) || !c.down[server] {
		return
	}
	c.down[server] = false
	c.Stats.Ups++
	if len(c.deficits[server]) > 0 {
		c.repairDue[server] = true
	}
}

// Health is the client's scrape function for the JSONL recorder: the
// torn-read detection surface the torn-read rate rule watches.
func (c *Client) Health() (map[string]uint64, map[string]float64) {
	return map[string]uint64{
		"kv_torn_detected":  c.Stats.TornDetected,
		"kv_torn_retries":   c.Stats.TornRetries,
		"kv_torn_failover":  c.Stats.TornFailovers,
		"kv_spilled_reads":  c.Stats.SpilledReads,
		"kv_orphans_reaped": c.Stats.OrphansReaped,
	}, nil
}

// acquire pops a free session; every public op holds exactly one.
func (c *Client) acquire() (*session, error) {
	n := len(c.pool)
	if n == 0 {
		return nil, fmt.Errorf("kvserve: session pool exhausted (raise Config.Sessions past the number of concurrent client processes)")
	}
	s := c.pool[n-1]
	c.pool = c.pool[:n-1]
	return s, nil
}

func (c *Client) release(s *session) { c.pool = append(c.pool, s) }

// wasDelete reports whether (key, ver) was issued as a tombstone.
func (c *Client) wasDelete(key, ver uint64) bool { return c.deleted[key][ver] }

// wasLarge reports whether (key, ver) was issued as a spilled write.
func (c *Client) wasLarge(key, ver uint64) bool { return c.larges[key][ver] }

// expectedVal returns the bytes (nil for a tombstone) that version ver
// of key must carry.
func (c *Client) expectedVal(key, ver uint64) []byte {
	if c.wasDelete(key, ver) {
		return nil
	}
	if c.wasLarge(key, ver) {
		return LargeValueFor(key, ver)
	}
	return ValueFor(key, ver)
}

// refetchRKey re-reads a server's current region key — the control
// plane's answer to rkey rotation after a restart. (The exchange is
// modeled as host-side state, like Pair.ExchangeRKeys.)
func (c *Client) refetchRKey(server int) {
	m := c.servers[server].M
	if r := m.NIC.RegionFor(uint64(m.Buf.Base())); r != nil {
		c.conns[server].rkey = r.RKey()
		c.Stats.RKeyRefetches++
	}
}

// recover is one backoff step of the per-replica retry loop: sleep,
// then either conclude the failure was transient (both QP ends still
// RTS — a loss-induced deadline miss needs no reconnect) or
// re-establish the connection and re-fetch the possibly-rotated rkey.
// Returns roce.ErrPeerCrashed while the server is down.
func (c *Client) recover(p *sim.Process, server, attempt int) error {
	p.Sleep(c.bo.Delay(attempt, p.Engine().Rand()))
	cn := &c.conns[server]
	sm := c.servers[server].M
	stc, err := c.m.NIC.Stack().QPStateOf(cn.qpc)
	if err != nil {
		return err
	}
	if stc == roce.QPStateRTS && !c.m.NIC.Crashed() && !sm.NIC.Crashed() {
		if sts, _ := sm.NIC.Stack().QPStateOf(cn.qps); sts == roce.QPStateRTS {
			return nil
		}
	}
	if err := c.net.ReconnectPair(c.idx, sm.Index, cn.qpc, cn.qps); err != nil {
		return err
	}
	c.Stats.Reconnects++
	c.refetchRKey(server)
	return nil
}

// readRemote pulls nbytes at va from one replica into the session's
// landing area and returns them in the session scratch.
func (c *Client) readRemote(p *sim.Process, sess *session, server int, va hostmem.Addr, nbytes int) ([]byte, error) {
	cn := &c.conns[server]
	v := core.Verb{Op: core.OpRead, RemoteVA: uint64(va), LocalVA: uint64(sess.read), Len: nbytes, RKey: cn.rkey, Deadline: p.Now().Add(c.deadline)}
	if err := c.m.NIC.Do(p, cn.qpc, v); err != nil {
		return nil, err
	}
	b := sess.buf[:nbytes]
	return b, c.m.NIC.Memory().ReadVirtInto(sess.read, b)
}

// stagedWrite describes what stageVersion put in the session buffers.
type stagedWrite struct {
	key, ver uint64
	spilled  bool
	off      int // arena offset, when spilled
}

// stageVersion writes the slot (and, for a spilled version, extent)
// image for (key, ver) into the session staging areas.
func (c *Client) stageVersion(sess *session, key, ver uint64) (stagedWrite, error) {
	sw := stagedWrite{key: key, ver: ver}
	mem := c.m.NIC.Memory()
	var flags uint32
	payload := sess.buf[:0] // each image is encoded right behind its payload
	switch {
	case c.wasDelete(key, ver):
		flags = FlagTombstone
	case c.wasLarge(key, ver):
		ref := c.ext[key]
		if ref == nil {
			return sw, fmt.Errorf("kvserve: key %d ver %d spilled but has no extent", key, ver)
		}
		val := appendLargeValue(payload, key, ver)
		img, err := AppendExtent(val, key, ver, val)
		if err != nil {
			return sw, err
		}
		if err := mem.WriteVirt(sess.ext, img[len(val):]); err != nil {
			return sw, err
		}
		sw.spilled, sw.off = true, ref.off
		flags = FlagSpilled
		payload = AppendSpillRef(payload, ref.off, len(val))
	default:
		payload = appendValue(payload, key, ver)
	}
	img, err := AppendSlot(payload, key, ver, payload, flags)
	if err != nil {
		return sw, err
	}
	return sw, mem.WriteVirt(sess.slot, img[len(payload):])
}

// attempt makes one attempt at the staged write on every listed replica
// (one or two) whose errs entry is nil, in one posting stage: all the
// WRITEs go out together under one deadline and the client parks once,
// so the write costs one round trip whatever the replica count. A spilled
// write posts each replica's extent and then its slot back to back on
// that replica's QP: PSN order applies them in that order at the
// responder, so the slot is never published ahead of its extent's bytes
// (DESIGN §17.2). A replica's failure is left in errs — the extent's if
// it has one: a NAK there is the cause, the slot's error only the flush
// of what was queued behind it.
func (c *Client) attempt(p *sim.Process, sess *session, sw stagedWrite, servers []int, errs []error) {
	j := &sess.join
	j.pending = 0
	for i := range servers {
		if errs[i] == nil {
			j.pending++
			if sw.spilled {
				j.pending++
			}
		}
	}
	if j.pending == 0 {
		return
	}
	j.done = sim.Completion[struct{}]{}
	sh := c.lay.ShardOf(sw.key)
	deadline := p.Now().Add(c.deadline)
	for i, server := range servers {
		if errs[i] != nil {
			continue
		}
		srv, cn := c.servers[server], &c.conns[server]
		if sw.spilled {
			va := c.lay.ExtentAddr(srv.ArenaFor(c.lay, sh), sw.off)
			c.m.NIC.Post(cn.qpc, core.Verb{Op: core.OpWrite, LocalVA: uint64(sess.ext), RemoteVA: uint64(va), Len: ExtentSize, RKey: cn.rkey, Deadline: deadline}, j.cb[2*i])
		}
		va := c.lay.SlotAddr(srv.TableFor(c.lay, sh), sw.key)
		c.m.NIC.Post(cn.qpc, core.Verb{Op: core.OpWrite, LocalVA: uint64(sess.slot), RemoteVA: uint64(va), Len: SlotSize, RKey: cn.rkey, Deadline: deadline}, j.cb[2*i+1])
	}
	j.done.Wait(p) // resolves without a value: the errors are in j.errs
	for i, server := range servers {
		if errs[i] != nil {
			continue
		}
		err := j.errs[2*i+1]
		if sw.spilled {
			// Anything but a clean NAK may have applied the extent: the
			// ledger then holds it as a possible orphan (DESIGN §17.3).
			ext := j.errs[2*i]
			if !errors.Is(ext, roce.ErrRemoteAccess) {
				c.noteExtentWritten(server, sw)
			}
			if ext != nil {
				err = ext
			}
		}
		if errs[i] = err; err == nil {
			c.notePublished(server, sw)
		}
	}
}

// putReplicas drives the staged write to completion on the listed
// replicas (a Put's two, a repair's one): one overlapped attempt on all
// that are up, then each replica that failed it goes through the retry
// loop on its own, in turn — the session has one landing area for the
// version probe. errs reports, per replica, nil once the write is
// applied there.
func (c *Client) putReplicas(p *sim.Process, sess *session, sw stagedWrite, servers []int, errs []error) {
	for i, server := range servers {
		errs[i] = nil
		if c.down[server] {
			errs[i] = fmt.Errorf("%w: server %d marked down", ErrUnavailable, server)
		}
	}
	c.attempt(p, sess, sw, servers, errs)
	for i, server := range servers {
		if errs[i] != nil {
			errs[i] = c.retryReplica(p, sess, server, sw, errs[i])
		}
	}
}

// retryReplica takes one replica whose first attempt failed with err
// through the rest of its bounded retry budget: backoff, reconnect and
// rkey refetch, and the duplicate-suppression probe before every
// rewrite of an ambiguous failure. An error no retry can cure (the
// replica is marked down) is returned as it came.
func (c *Client) retryReplica(p *sim.Process, sess *session, server int, sw stagedWrite, err error) error {
	slotVA := c.lay.SlotAddr(c.servers[server].TableFor(c.lay, c.lay.ShardOf(sw.key)), sw.key)
	one, errs := [1]int{server}, [1]error{}
	for attempt := 1; ; attempt++ {
		switch {
		case errors.Is(err, roce.ErrRemoteAccess):
			// NAK'd by the MR check: nothing was applied, but the cached
			// rkey is stale (a restart rotated it). Refetch and retry; the
			// recover step will clear the ERROR state the NAK left behind.
			c.refetchRKey(server)
		case errors.Is(err, sim.ErrDeadlineExceeded), errors.Is(err, roce.ErrQPError):
		default:
			return err
		}
		if attempt >= maxAttempts {
			return err
		}
		c.Stats.Retries++
		if rerr := c.recover(p, server, attempt-1); rerr != nil {
			c.MarkDown(server)
			return rerr
		}
		// The failed attempt may have landed before its deadline
		// expired — or, with a second writer process racing this key
		// (the chaos regime's overwriter), a newer version may have
		// been published while we backed off. Probe the slot's version
		// field and suppress the retry if this or a newer write is
		// already applied: rewriting would regress the slot.
		if b, rerr := c.readRemote(p, sess, server, slotVA+slotVerOff, 8); rerr == nil {
			if got := binary.LittleEndian.Uint64(b); got >= sw.ver {
				c.Stats.DupSuppressed++
				c.notePublished(server, sw)
				return nil
			}
		}
		errs[0] = nil
		c.attempt(p, sess, sw, one[:], errs[:])
		if err = errs[0]; err == nil {
			return nil
		}
	}
}

// noteExtentWritten records that replica server's extent for sw.key now
// holds sw.ver, or may (the WRITE ended ambiguously). If the image it
// overwrote was never published there, that orphan is now reaped —
// destroyed without ever being servable.
func (c *Client) noteExtentWritten(server int, sw stagedWrite) {
	ref := c.ext[sw.key]
	if ref == nil || ref.off != sw.off {
		return // key went inline and the offset was recycled mid-flight
	}
	if w := ref.wrote[server]; w > ref.pub[server] && w != sw.ver {
		c.Stats.OrphansReaped++
	}
	ref.wrote[server] = sw.ver
}

// notePublished records a successful slot publish of sw at server.
func (c *Client) notePublished(server int, sw stagedWrite) {
	if !sw.spilled {
		return
	}
	if ref := c.ext[sw.key]; ref != nil && ref.off == sw.off && ref.pub[server] < sw.ver {
		ref.pub[server] = sw.ver
	}
}

// freeExtent reaps any unpublished replica images and returns the key's
// arena offset to the shard allocator. Called when an inline write or
// tombstone supersedes a spilled value.
func (c *Client) freeExtent(key uint64) {
	ref := c.ext[key]
	if ref == nil {
		return
	}
	for s := range ref.wrote {
		if ref.wrote[s] > ref.pub[s] {
			c.Stats.OrphansReaped++
		}
	}
	c.arenas[c.lay.ShardOf(key)].Free(ref.off)
	delete(c.ext, key)
}

// put is the shared body of Put, Delete and PutLarge.
func (c *Client) put(p *sim.Process, key uint64, kind opKind) error {
	if key == 0 || key > c.lay.NumKeys {
		return fmt.Errorf("kvserve: key %d outside 1..%d", key, c.lay.NumKeys)
	}
	sess, err := c.acquire()
	if err != nil {
		return err
	}
	defer c.release(sess)
	start := p.Now()
	ver := c.issued[key] + 1
	c.issued[key] = ver
	c.Stats.Puts++
	switch kind {
	case opDelete:
		c.Stats.Deletes++
		m := c.deleted[key]
		if m == nil {
			m = make(map[uint64]bool)
			c.deleted[key] = m
		}
		m[ver] = true
		c.freeExtent(key)
	case opLarge:
		c.Stats.LargePuts++
		m := c.larges[key]
		if m == nil {
			m = make(map[uint64]bool)
			c.larges[key] = m
		}
		m[ver] = true
		if c.ext[key] == nil {
			// First spill for this key: claim an arena slot. Later spills
			// overwrite it in place, so the offset is stable across
			// versions (and the racing regime's writes land exactly where
			// a concurrent reader is looking).
			off, err := c.arenas[c.lay.ShardOf(key)].Alloc()
			if err != nil {
				return err
			}
			s := len(c.servers)
			c.ext[key] = &extRef{off: off, wrote: make([]uint64, s), pub: make([]uint64, s)}
		}
	default:
		c.freeExtent(key)
	}
	sw, err := c.stageVersion(sess, key, ver)
	if err != nil {
		return err
	}
	sh := c.lay.ShardOf(key)
	servers := [2]int{c.lay.PrimaryServer(sh), c.lay.BackupServer(sh)}
	var errs [2]error
	c.putReplicas(p, sess, sw, servers[:], errs[:])
	ackedAny := false
	for i, server := range servers {
		if errs[i] == nil {
			ackedAny = true
			delete(c.deficits[server], key)
		} else {
			// Owe this server the write; a repair pass delivers it once the
			// server is reachable again.
			c.deficits[server][key] = ver
		}
	}
	if !ackedAny {
		c.Stats.UnackedPuts++
		return fmt.Errorf("%w: key %d ver %d", ErrUnavailable, key, ver)
	}
	c.acked[key] = ver
	c.Stats.AckedPuts++
	d := p.Now().Sub(start)
	c.PutLat = append(c.PutLat, d)
	if kind == opLarge {
		if c.histLarge == nil {
			c.histLarge = c.reg.Histogram("kv_op_latency_ps", "ps", telemetry.L("op", "put-large"))
		}
		c.histLarge.Observe(d)
	} else {
		c.histPut.Observe(d)
	}
	return nil
}

// Put writes the deterministic value for the key's next version to both
// replicas at once — one round trip — acking once at least one holds it.
func (c *Client) Put(p *sim.Process, key uint64) error { return c.put(p, key, opInline) }

// PutLarge writes the deterministic large value (25..96 B) for the
// key's next version: extent first, version-stamped pointer slot right
// behind it on the same QP, to both replicas at once — one round trip.
func (c *Client) PutLarge(p *sim.Process, key uint64) error { return c.put(p, key, opLarge) }

// Delete writes a tombstone version — ordered, versioned and replicated
// exactly like any other Put. Deleting a spilled key frees its extent.
func (c *Client) Delete(p *sim.Process, key uint64) error { return c.put(p, key, opDelete) }

// getReplica reads key from one replica. With an extent offset in the
// ledger the slot READ and the extent read leave together (getSpilled),
// a hint the slot then checks; without one the slot is read alone, as
// an inline Get costs, and a spill ref found there is chased the same
// way. A spilled value is the kernel read's own copy; an inline slot's
// aliases the session scratch.
func (c *Client) getReplica(p *sim.Process, sess *session, server int, key, want uint64) (Slot, []byte, error) {
	if ref := c.ext[key]; ref != nil {
		return c.getSpilled(p, sess, server, key, ref.off, want)
	}
	slot, err := c.readSlot(p, sess, server, c.lay.SlotAddr(c.servers[server].TableFor(c.lay, c.lay.ShardOf(key)), key))
	switch {
	case err != nil:
		return slot, nil, err
	case slot.Ver < want:
		c.Stats.StaleRerouted++
		return slot, nil, fmt.Errorf("%w: server %d at ver %d, acked %d", ErrStale, server, slot.Ver, want)
	case slot.Flags&FlagSpilled != 0:
		off, _, _ := DecodeSpillRef(slot.Val) // getSpilled re-reads and checks it
		return c.getSpilled(p, sess, server, key, off, want)
	}
	return slot, nil, nil
}

// readSlot reads one replica's slot with bounded retries (reads are
// idempotent, so no duplicate suppression is needed). The slot's value
// aliases the session scratch: it is good until the session's next read.
func (c *Client) readSlot(p *sim.Process, sess *session, server int, va hostmem.Addr) (Slot, error) {
	if c.down[server] {
		return Slot{}, fmt.Errorf("%w: server %d marked down", ErrUnavailable, server)
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.Stats.Retries++
			if err := c.recover(p, server, attempt-1); err != nil {
				c.MarkDown(server)
				return Slot{}, err
			}
		}
		b, err := c.readRemote(p, sess, server, va, SlotSize)
		if err == nil {
			return DecodeSlot(b), nil
		}
		lastErr = err
		switch {
		case errors.Is(err, roce.ErrRemoteAccess):
			c.refetchRKey(server)
		case errors.Is(err, sim.ErrDeadlineExceeded), errors.Is(err, roce.ErrQPError):
		default:
			return Slot{}, err
		}
	}
	return Slot{}, lastErr
}

// Get reads a key, preferring the primary replica and failing over to
// the backup. A replica is only trusted if its slot version has caught
// up with the highest acked write — a read behind that is rerouted, so
// a Get can never observe a value staler than an acked Put. A spilled
// key's slot and extent are read in one round trip, the extent through
// the consistency kernel (getSpilled); a torn extent read is retried
// under the torn budget and fails over past it. Found reports whether
// the key currently has a live (non-tombstone) value.
func (c *Client) Get(p *sim.Process, key uint64) (slot Slot, found bool, err error) {
	if key == 0 || key > c.lay.NumKeys {
		return Slot{}, false, fmt.Errorf("kvserve: key %d outside 1..%d", key, c.lay.NumKeys)
	}
	sess, err := c.acquire()
	if err != nil {
		return Slot{}, false, err
	}
	defer c.release(sess)
	start := p.Now()
	c.Stats.Gets++
	sh := c.lay.ShardOf(key)
	prim := c.lay.PrimaryServer(sh)
	order := []int{prim, c.lay.BackupServer(sh)}
	if c.down[order[0]] && !c.down[order[1]] {
		order[0], order[1] = order[1], order[0]
	}
	want := c.acked[key]
	staleReads := 0
	var lastErr error
	for _, server := range order {
		slot, val, rerr := c.getReplica(p, sess, server, key, want)
		if rerr != nil {
			lastErr = rerr
			if errors.Is(rerr, ErrStale) {
				staleReads++
			}
			continue
		}
		if slot.Flags&FlagSpilled != 0 {
			slot.Val = val
			c.checkLarge(key, slot)
		} else {
			// Inline from the start, or the key went back inline while we
			// chased the extent. The one copy of a served value: out of the
			// session scratch, which the next op on this session overwrites.
			c.checkSlot(key, slot)
			slot.Val = append([]byte(nil), slot.Val...)
		}
		if server != prim {
			c.Stats.Failovers++
		}
		d := p.Now().Sub(start)
		c.GetLat = append(c.GetLat, d)
		c.histGet.Observe(d)
		if slot.Ver == 0 {
			c.Stats.GetMisses++
			return slot, false, nil
		}
		return slot, !slot.Tombstone(), nil
	}
	if staleReads == len(order) {
		// Every replica answered and every answer was behind an acked
		// write: the durability guarantee is broken.
		c.Stats.StaleServed++
	} else {
		c.Stats.GetFailures++
	}
	return Slot{}, false, lastErr
}

// checkSlot audits a successfully read inline slot against the
// deterministic value function; any divergence is a misapplied write.
func (c *Client) checkSlot(key uint64, s Slot) {
	if s.Flags&FlagSpilled != 0 {
		return // spilled slots are checked end-to-end by checkLarge
	}
	if s.Ver == 0 {
		if s.Key != 0 || len(s.Val) != 0 {
			c.Stats.Misapplied++
		}
		return
	}
	if s.Key != key || s.Ver > c.issued[key] {
		c.Stats.Misapplied++
		return
	}
	if s.Tombstone() != c.wasDelete(key, s.Ver) {
		c.Stats.Misapplied++
		return
	}
	want := c.expectedVal(key, s.Ver)
	if len(s.Val) != len(want) {
		c.Stats.Misapplied++
		return
	}
	for i := range want {
		if s.Val[i] != want[i] {
			c.Stats.Misapplied++
			return
		}
	}
}

// checkLarge audits a spilled value about to be served. The extent
// already passed the kernel CRC and the slot/extent cross-check, so the
// value must equal the deterministic function of its version stamp —
// anything else means a torn value made it past detection, the exact
// violation the chaos audit gates on.
func (c *Client) checkLarge(key uint64, s Slot) {
	if s.Key != key || s.Ver == 0 || s.Ver > c.issued[key] {
		c.Stats.Misapplied++
		return
	}
	want := c.expectedVal(key, s.Ver)
	if len(s.Val) != len(want) {
		c.Stats.TornServed++
		c.Stats.Misapplied++
		return
	}
	for i := range want {
		if s.Val[i] != want[i] {
			c.Stats.TornServed++
			c.Stats.Misapplied++
			return
		}
	}
}

// Deficits returns the total number of (server, key) replica writes
// still owed — zero once the cluster has fully converged.
func (c *Client) Deficits() int {
	n := 0
	for _, d := range c.deficits {
		n += len(d)
	}
	return n
}

// RepairDue reports whether any recovered server is owed writes.
func (c *Client) RepairDue() bool {
	for _, due := range c.repairDue {
		if due {
			return true
		}
	}
	return false
}

// Repair drains the deficit of every server flagged by MarkUp:
// reconnects, re-fetches the rotated rkey, and re-replicates each owed
// (key, version) with the same duplicate-suppressed protocol as a
// normal Put. Keys drain in sorted order so the repair schedule is
// deterministic.
func (c *Client) Repair(p *sim.Process) {
	for server := range c.repairDue {
		if c.repairDue[server] {
			c.repairServer(p, server)
		}
	}
}

// RepairAll force-clears every down mark and drains every deficit —
// the end-of-run convergence pass, when all servers are back.
func (c *Client) RepairAll(p *sim.Process) {
	for server := range c.down {
		c.MarkUp(server)
		c.repairServer(p, server)
	}
}

func (c *Client) repairServer(p *sim.Process, server int) {
	defic := c.deficits[server]
	c.repairDue[server] = false
	if len(defic) == 0 {
		return
	}
	sess, err := c.acquire()
	if err != nil {
		return
	}
	defer c.release(sess)
	keys := make([]uint64, 0, len(defic))
	for k := range defic {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	one, errs := [1]int{server}, [1]error{}
	for _, key := range keys {
		// keys is a snapshot and every write below parks: read the ledger
		// again. A Put from another client process that reached this
		// server meanwhile has settled the debt, and one still in flight
		// (a debt older than the issued version) will either deliver or
		// re-record it — writing the old version now would regress the
		// slot under that Put.
		ver, owed := defic[key]
		if !owed || ver < c.issued[key] {
			continue
		}
		sw, err := c.stageVersion(sess, key, ver)
		if err != nil {
			return
		}
		c.putReplicas(p, sess, sw, one[:], errs[:])
		if errs[0] != nil {
			// Server went away again mid-repair; MarkUp will re-flag us.
			c.repairDue[server] = len(defic) > 0
			return
		}
		if defic[key] == ver {
			delete(defic, key)
		}
		c.Stats.Repairs++
	}
}
