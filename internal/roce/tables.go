package roce

import (
	"errors"
	"fmt"

	"strom/internal/packet"
)

// Errors returned by table operations.
var (
	ErrBadQPN       = errors.New("roce: queue pair number out of range")
	ErrQPNotCreated = errors.New("roce: queue pair not created")
	ErrQPExists     = errors.New("roce: queue pair already exists")
	ErrMQPoolFull   = errors.New("roce: multi-queue pool exhausted")
	ErrMQDepth      = errors.New("roce: per-QP outstanding read limit reached")
	ErrMQEmpty      = errors.New("roce: multi-queue empty for QP")
)

// Identity is the network identity of a NIC port.
type Identity struct {
	MAC packet.MAC
	IP  packet.IPv4
}

// qpState is one State Table + MSN Table entry pair. The hardware stores
// responder and requester state separately; we keep them in one record
// per QPN.
type qpState struct {
	created   bool
	remote    Identity
	remoteQPN uint32

	// Lifecycle state (see recovery.go). The zero value is RTS so
	// created QPs start ready to send.
	state QPState

	// Responder state (State Table): the expected PSN defining the
	// valid/duplicate/invalid regions.
	ePSN    uint32
	nakSent bool // a sequence NAK was sent and not yet resynchronised

	// Responder message state (MSN Table): message sequence number and
	// the running DMA address for multi-packet writes ("for write
	// operations with payload spanning multiple packets the address is
	// only part of the first packet", §4.1).
	msn       uint32
	curVA     uint64
	curRPCOp  uint64
	inRPC     bool
	recentRds recentReads // executed READs, for duplicate re-execution

	// Requester state.
	nextPSN    uint32
	pending    []*pendingPacket // posted, not yet acknowledged (FIFO by PSN)
	pendBuf    []*pendingPacket // pending's array from its start (see ackUpTo)
	sent       int              // pending[:sent] are on the wire; the rest wait for pump
	retries    int
	progress   uint64 // bumped on any QP activity; defers the retransmission timer
	remoteRKey uint32 // default rkey stamped on posts that pass RKey 0

	// DCQCN rate state, lazily allocated when the stack has congestion
	// control enabled (see dcqcn.go). nil otherwise.
	cc *dcqcnQP
}

// recentRead remembers an executed read request so a duplicate (retried)
// request can be re-served. Its first response PSN is the request PSN.
type recentRead struct {
	va   uint64
	n    uint32
	rkey uint32 // original request key, revalidated before duplicate serving
	tag  uint32 // request PSN | recentValid; zero in an empty slot
}

// recentValid marks a recentRead slot in use: it lies above the 24 PSN
// bits of a tag, so PSN 0 is a tag like any other.
const recentValid = 1 << 24

// recentReads is a QP's recent-read table (DESIGN.md §4.1): a fixed ring
// indexed by request PSN, each slot tagged with the PSN it holds. A
// duplicate READ is re-served only from within readWindow PSNs behind the
// expected PSN, and the ring is at least that long, so no READ inside the
// window can have been overwritten: two requests sharing a slot lie a
// whole ring apart. The table is made at the QP's first READ and a reset
// clears it in place.
type recentReads []recentRead

// readWindow is how far behind the expected PSN a duplicate READ is still
// re-served: eight times the outstanding reads a QP may have.
func readWindow(cfg Config) int32 { return int32(8 * cfg.ReadDepthPerQP) }

// newRecentReads makes a ring of the smallest power of two not below the
// window.
func newRecentReads(cfg Config) recentReads {
	n := 1
	for n < int(readWindow(cfg)) {
		n <<= 1
	}
	return make(recentReads, n)
}

// put records the READ executed at request psn.
func (r recentReads) put(psn uint32, va uint64, n, rkey uint32) {
	r[psn&uint32(len(r)-1)] = recentRead{va: va, n: n, rkey: rkey, tag: psn | recentValid}
}

// get returns the READ executed at request psn, if its slot still holds
// it.
func (r recentReads) get(psn uint32) (recentRead, bool) {
	if len(r) == 0 {
		return recentRead{}, false
	}
	rr := r[psn&uint32(len(r)-1)]
	return rr, rr.tag == psn|recentValid
}

// pendingPacket is a requester-side packet awaiting acknowledgement,
// retained for go-back-N retransmission. A segment of a streamed message
// is posted before its payload has arrived: its frame is nil until then.
type pendingPacket struct {
	psn    uint32 // first PSN consumed
	npsn   uint32 // PSNs consumed (reads consume one per response packet)
	frame  []byte // encoded frame for retransmission, pooled (see Stack.freePending)
	msg    *outMessage
	op     packet.Opcode
	lastOf bool // completes msg when acknowledged
	isRead bool
}

func (p *pendingPacket) endPSN() uint32 { return psnAdd(p.psn, p.npsn-1) }

// outMessage tracks one posted operation through completion. Records are
// recycled at the call that makes them unreachable: refs counts the
// holds on one, each of which may still call finish or Feed — one per
// pending entry, until the entry leaves its QP's pending list; a READ's
// Multi-Queue element, until it is retired; and a streamed WRITE's
// Message, until its last piece is fed. A record is recycled only once
// it is done, so the poster may also finish it through Message.Expire
// until its completion has fired; a message therefore outlives its own
// completion, and a flushed stream never gets its last piece and so is
// left to the garbage collector, because the caller may still Feed it.
type outMessage struct {
	kind     packet.MessageKind
	isRead   bool
	owner    *Stack // counts the completion in the owner's Stats
	complete func(error)
	done     bool
	refs     int

	qpn uint32
	// Segmented messages: how many of the nseg segments have been fed
	// their payload (see Stack.feed).
	seg, nseg uint32

	// Observer binding (nil unless the stack has an observer; see
	// instrument.go). The lifecycle invariant is checked on opID.
	obs   Observer
	obsID uint64
}

func (m *outMessage) finish(err error) {
	if m.done {
		return
	}
	m.done = true
	if m.owner != nil {
		m.owner.stats.OpsCompleted++
	}
	if m.obs != nil {
		m.obs.CompletedOp(m.qpn, m.obsID, err)
	}
	if m.complete != nil {
		m.complete(err)
	}
}

// stateTable holds per-QP state with the hardware's fixed capacity.
type stateTable struct {
	qps []qpState
}

func newStateTable(numQPs int) *stateTable {
	return &stateTable{qps: make([]qpState, numQPs)}
}

func (t *stateTable) get(qpn uint32) (*qpState, error) {
	if int(qpn) >= len(t.qps) {
		return nil, fmt.Errorf("%w: %d (max %d)", ErrBadQPN, qpn, len(t.qps)-1)
	}
	st := &t.qps[qpn]
	if !st.created {
		return nil, fmt.Errorf("%w: %d", ErrQPNotCreated, qpn)
	}
	return st, nil
}

func (t *stateTable) create(qpn uint32, remote Identity, remoteQPN uint32) error {
	if int(qpn) >= len(t.qps) {
		return fmt.Errorf("%w: %d (max %d)", ErrBadQPN, qpn, len(t.qps)-1)
	}
	st := &t.qps[qpn]
	if st.created {
		return fmt.Errorf("%w: %d", ErrQPExists, qpn)
	}
	*st = qpState{
		created:   true,
		remote:    remote,
		remoteQPN: remoteQPN,
	}
	return nil
}

// mqElement is one Multi-Queue list element: the target of an outstanding
// RDMA read ("a local host memory pointer, a pointer to the next element,
// and a flag indicating if this is the tail", §4.1).
type mqElement struct {
	FirstPSN uint32
	LastPSN  uint32
	Length   int
	Sink     ReadSink
	Msg      *outMessage
	ReqFrame []byte // read request frame, for timeout re-request; pooled, shared with its pending entry

	nextPSN  uint32 // next expected response PSN
	offset   int    // next payload offset
	inFlight int    // sink deliveries not yet acknowledged
	ack      func() // handed to Sink with every chunk; bound once per element (see Stack.newElem)
	sawLast  bool
	popped   bool // off its QP's list: no response reaches it any more
	next     int  // pool index of next element, -1 at tail
}

// multiQueue implements the fixed-pool, per-QP linked-list structure of
// §4.1: two arrays in on-chip memory, one holding per-QP head/tail
// metadata and one holding the shared elements. Elements are stored by
// pointer, so a popped element stays valid for the acknowledgements its
// sink still owes (the stack recycles it after the last, see
// Stack.retireRead).
type multiQueue struct {
	pool     []*mqElement
	free     []int
	heads    []int // per QP, -1 when empty
	tails    []int
	lengths  []int
	maxDepth int
}

func newMultiQueue(numQPs, poolSize, maxDepth int) *multiQueue {
	m := &multiQueue{
		pool:     make([]*mqElement, poolSize),
		free:     make([]int, 0, poolSize),
		heads:    make([]int, numQPs),
		tails:    make([]int, numQPs),
		lengths:  make([]int, numQPs),
		maxDepth: maxDepth,
	}
	for i := poolSize - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	for i := range m.heads {
		m.heads[i] = -1
		m.tails[i] = -1
	}
	return m
}

// push appends an element to the QP's list.
func (m *multiQueue) push(qpn uint32, el *mqElement) error {
	if int(qpn) >= len(m.heads) {
		return ErrBadQPN
	}
	if m.lengths[qpn] >= m.maxDepth {
		return ErrMQDepth
	}
	if len(m.free) == 0 {
		return ErrMQPoolFull
	}
	idx := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	el.next = -1
	m.pool[idx] = el
	if m.tails[qpn] >= 0 {
		m.pool[m.tails[qpn]].next = idx
	} else {
		m.heads[qpn] = idx
	}
	m.tails[qpn] = idx
	m.lengths[qpn]++
	return nil
}

// head returns the oldest outstanding element for the QP.
func (m *multiQueue) head(qpn uint32) (*mqElement, bool) {
	if int(qpn) >= len(m.heads) || m.heads[qpn] < 0 {
		return nil, false
	}
	return m.pool[m.heads[qpn]], true
}

// popHead removes and returns the oldest element.
func (m *multiQueue) popHead(qpn uint32) (*mqElement, error) {
	if int(qpn) >= len(m.heads) || m.heads[qpn] < 0 {
		return nil, ErrMQEmpty
	}
	idx := m.heads[qpn]
	e := m.pool[idx]
	m.pool[idx] = nil
	e.popped = true
	m.heads[qpn] = e.next
	if e.next < 0 {
		m.tails[qpn] = -1
	}
	m.lengths[qpn]--
	m.free = append(m.free, idx)
	return e, nil
}

// each visits every element of the QP's list in order.
func (m *multiQueue) each(qpn uint32, fn func(*mqElement)) {
	if int(qpn) >= len(m.heads) {
		return
	}
	for idx := m.heads[qpn]; idx >= 0; idx = m.pool[idx].next {
		fn(m.pool[idx])
	}
}

// len reports the list length for a QP.
func (m *multiQueue) len(qpn uint32) int {
	if int(qpn) >= len(m.lengths) {
		return 0
	}
	return m.lengths[qpn]
}
