package roce

import (
	"errors"
	"testing"
)

func TestStateTableCreateAndGet(t *testing.T) {
	st := newStateTable(4)
	if _, err := st.get(1); !errors.Is(err, ErrQPNotCreated) {
		t.Errorf("get before create: %v", err)
	}
	if err := st.create(1, Identity{}, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.create(1, Identity{}, 2); !errors.Is(err, ErrQPExists) {
		t.Errorf("double create: %v", err)
	}
	if err := st.create(4, Identity{}, 2); !errors.Is(err, ErrBadQPN) {
		t.Errorf("out-of-range create: %v", err)
	}
	qp, err := st.get(1)
	if err != nil {
		t.Fatal(err)
	}
	if qp.remoteQPN != 2 {
		t.Errorf("remoteQPN = %d", qp.remoteQPN)
	}
	if _, err := st.get(100); !errors.Is(err, ErrBadQPN) {
		t.Errorf("out-of-range get: %v", err)
	}
}

func TestMultiQueueFIFOPerQP(t *testing.T) {
	mq := newMultiQueue(4, 16, 8)
	for i := uint32(0); i < 3; i++ {
		if err := mq.push(1, &mqElement{FirstPSN: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mq.push(2, &mqElement{FirstPSN: 100}); err != nil {
		t.Fatal(err)
	}
	if mq.len(1) != 3 || mq.len(2) != 1 {
		t.Errorf("lengths = %d,%d", mq.len(1), mq.len(2))
	}
	for i := uint32(0); i < 3; i++ {
		h, ok := mq.head(1)
		if !ok || h.FirstPSN != i {
			t.Fatalf("head %d wrong", i)
		}
		e, err := mq.popHead(1)
		if err != nil || e.FirstPSN != i {
			t.Fatalf("pop %d: %v", i, err)
		}
	}
	if _, err := mq.popHead(1); !errors.Is(err, ErrMQEmpty) {
		t.Errorf("pop empty: %v", err)
	}
	// QP 2 unaffected.
	if e, err := mq.popHead(2); err != nil || e.FirstPSN != 100 {
		t.Errorf("qp2 pop: %v", err)
	}
}

func TestMultiQueueDepthLimit(t *testing.T) {
	mq := newMultiQueue(2, 16, 2)
	mq.push(0, &mqElement{})
	mq.push(0, &mqElement{})
	if err := mq.push(0, &mqElement{}); !errors.Is(err, ErrMQDepth) {
		t.Errorf("depth limit: %v", err)
	}
	// Other QPs still have room.
	if err := mq.push(1, &mqElement{}); err != nil {
		t.Errorf("qp1 push: %v", err)
	}
}

func TestMultiQueueSharedPool(t *testing.T) {
	mq := newMultiQueue(8, 4, 100)
	for i := uint32(0); i < 4; i++ {
		if err := mq.push(i, &mqElement{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mq.push(5, &mqElement{}); !errors.Is(err, ErrMQPoolFull) {
		t.Errorf("pool full: %v", err)
	}
	if len(mq.free) != 0 {
		t.Errorf("free = %d", len(mq.free))
	}
	mq.popHead(0)
	if err := mq.push(5, &mqElement{}); err != nil {
		t.Errorf("push after free: %v", err)
	}
}

func TestMultiQueuePointerStability(t *testing.T) {
	// A popped element must stay intact after its slot is reused: its
	// sink may still owe acknowledgements (completion callbacks outlive
	// the pop).
	mq := newMultiQueue(2, 2, 2)
	e1, e2 := &mqElement{FirstPSN: 1}, &mqElement{FirstPSN: 2}
	mq.push(0, e1)
	mq.popHead(0)
	mq.push(1, e2)
	if e1.FirstPSN != 1 || !e1.popped || e2.FirstPSN != 2 || e2.popped {
		t.Error("popped element mutated by slot reuse")
	}
}

func TestMultiQueueEach(t *testing.T) {
	mq := newMultiQueue(2, 8, 8)
	for i := uint32(0); i < 4; i++ {
		mq.push(0, &mqElement{FirstPSN: i})
	}
	var got []uint32
	mq.each(0, func(e *mqElement) { got = append(got, e.FirstPSN) })
	if len(got) != 4 {
		t.Fatalf("visited %d", len(got))
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Errorf("order = %v", got)
		}
	}
	mq.each(99, func(e *mqElement) { t.Error("visited out-of-range QP") })
}

func TestMultiQueueBadQPN(t *testing.T) {
	mq := newMultiQueue(1, 2, 2)
	if err := mq.push(5, &mqElement{}); !errors.Is(err, ErrBadQPN) {
		t.Errorf("bad qpn: %v", err)
	}
	if _, ok := mq.head(5); ok {
		t.Error("head of bad qpn")
	}
	if mq.len(5) != 0 {
		t.Error("len of bad qpn")
	}
}
