package hllkernel_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/kernels/hllkernel"
	"strom/internal/sim"
	"strom/internal/testrig"
)

const rpcOp = 0x05

func TestParamsRoundTrip(t *testing.T) {
	f := func(d, r uint64, reset bool) bool {
		in := hllkernel.Params{DataAddress: d, ResultAddress: r, Reset: reset}
		out, err := hllkernel.DecodeParams(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := hllkernel.DecodeParams([]byte{1}); err == nil {
		t.Error("short params accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := hllkernel.New(99); err == nil {
		t.Error("bad precision accepted")
	}
	k, err := hllkernel.New(0)
	if err != nil || k == nil {
		t.Fatalf("default precision: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad precision")
		}
	}()
	hllkernel.MustNew(99)
}

// runStream streams `data` from A through the HLL kernel on B and returns
// the result block plus the landed payload.
func runStream(t *testing.T, seed int64, data []byte, storeData bool) (estimate uint64, estFloat float64, count uint64, landed []byte, k *hllkernel.Kernel) {
	t.Helper()
	p, err := testrig.New(seed, core.Profile100G(), fabric.DirectCable100G(), 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	k = hllkernel.MustNew(14)
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	dataDst := uint64(0)
	if storeData {
		dataDst = uint64(p.BufB.Base())
	}
	resultVA := p.BufB.Base() + hostmem.Addr(len(data)+4096)
	params := hllkernel.Params{DataAddress: dataDst, ResultAddress: uint64(resultVA), Reset: true}
	p.Eng.Go("sender", func(pr *sim.Process) {
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params.Encode()); err != nil {
			t.Errorf("params rpc: %v", err)
			return
		}
		if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), len(data)); err != nil {
			t.Errorf("rpc write: %v", err)
		}
	})
	// B's host polls the result the kernel publishes into its memory.
	p.EngB.Go("poller", func(pr *sim.Process) {
		raw, err := p.B.Host().Poll(pr, p.B.Memory(), resultVA, hllkernel.ResultSize, func(b []byte) bool {
			return binary.LittleEndian.Uint64(b[16:24]) != 0 // item count lands last in the block
		}, 0)
		if err != nil {
			t.Errorf("result poll: %v", err)
			return
		}
		estimate = binary.LittleEndian.Uint64(raw[0:8])
		estFloat = math.Float64frombits(binary.LittleEndian.Uint64(raw[8:16]))
		count = binary.LittleEndian.Uint64(raw[16:24])
	})
	p.Run()
	if storeData {
		landed, err = p.B.Memory().ReadVirt(p.BufB.Base(), len(data))
		if err != nil {
			t.Fatal(err)
		}
	}
	return estimate, estFloat, count, landed, k
}

func TestWritePlusHLLEndToEnd(t *testing.T) {
	const items = 50000
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, items*8)
	distinct := make(map[uint64]bool)
	for i := 0; i < items; i++ {
		v := uint64(rng.Intn(items / 2))
		binary.LittleEndian.PutUint64(data[i*8:], v)
		distinct[v] = true
	}
	est, estF, count, landed, k := runStream(t, 1, data, true)
	if count != items {
		t.Errorf("item count = %d, want %d", count, items)
	}
	want := float64(len(distinct))
	if math.Abs(estF-want)/want > 0.05 {
		t.Errorf("estimate = %.0f, want ~%.0f", estF, want)
	}
	if est == 0 || math.Abs(float64(est)-estF) > 1 {
		t.Errorf("rounded estimate %d inconsistent with %f", est, estF)
	}
	// Bump-in-the-wire: the payload still landed in host memory intact.
	if !bytes.Equal(landed, data) {
		t.Error("payload corrupted on the way to host memory")
	}
	if k.Stats().Items != items {
		t.Errorf("kernel items = %d", k.Stats().Items)
	}
}

func TestEstimationWithoutStoringData(t *testing.T) {
	const items = 10000
	data := make([]byte, items*8)
	for i := 0; i < items; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i)) // all distinct
	}
	_, estF, count, _, _ := runStream(t, 2, data, false)
	if count != items {
		t.Errorf("count = %d", count)
	}
	if math.Abs(estF-items)/items > 0.05 {
		t.Errorf("estimate = %.0f, want ~%d", estF, items)
	}
}

func TestResetBetweenSessions(t *testing.T) {
	p, err := testrig.New(3, core.Profile100G(), fabric.DirectCable100G(), 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := hllkernel.MustNew(12)
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	mkData := func(base int) []byte {
		d := make([]byte, 1000*8)
		for i := 0; i < 1000; i++ {
			binary.LittleEndian.PutUint64(d[i*8:], uint64(base+i))
		}
		return d
	}
	resultVA := p.BufB.Base() + 1<<20
	clear := make([]byte, hllkernel.ResultSize)
	if err := p.B.Memory().WriteVirt(resultVA, clear); err != nil {
		t.Fatal(err)
	}
	// B's host polls each session's result, clears the block for the next
	// one, and reports the estimate back to A a cable delay later.
	const sessions = 3
	var estimates [sessions]sim.Completion[float64]
	p.EngB.Go("poller", func(pr *sim.Process) {
		for i := range estimates {
			raw, err := p.B.Host().Poll(pr, p.B.Memory(), resultVA, hllkernel.ResultSize, func(b []byte) bool {
				return binary.LittleEndian.Uint64(b[16:24]) != 0
			}, 0)
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			est := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:16]))
			if err := p.B.Memory().WriteVirt(resultVA, clear); err != nil {
				t.Errorf("clear: %v", err)
				return
			}
			p.EngB.CrossSchedule(p.Eng, p.Group.Lookahead(), func() { estimates[i].Complete(est) })
		}
	})
	session := 0
	run := func(pr *sim.Process, data []byte, reset bool) float64 {
		if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
			t.Fatal(err)
		}
		params := hllkernel.Params{ResultAddress: uint64(resultVA), Reset: reset}
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params.Encode()); err != nil {
			t.Errorf("params: %v", err)
		}
		if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), len(data)); err != nil {
			t.Errorf("write: %v", err)
		}
		est, _ := estimates[session].Wait(pr)
		session++
		return est
	}
	p.Eng.Go("sender", func(pr *sim.Process) {
		e1 := run(pr, mkData(0), true)
		if math.Abs(e1-1000)/1000 > 0.1 {
			t.Errorf("first estimate = %.0f", e1)
		}
		// Without reset the sketch accumulates: new distinct values.
		e2 := run(pr, mkData(100000), false)
		if e2 < 1.5*e1 {
			t.Errorf("accumulated estimate = %.0f, want ~2x %.0f", e2, e1)
		}
		// With reset it starts over.
		e3 := run(pr, mkData(200000), true)
		if math.Abs(e3-1000)/1000 > 0.1 {
			t.Errorf("post-reset estimate = %.0f", e3)
		}
	})
	p.Run()
}

func TestKernelAddsNoThroughputOverhead(t *testing.T) {
	// Fig. 13b: Write+HLL tracks plain Write. Compare the time to stream
	// a large buffer with the kernel vs a plain RDMA write.
	const n = 4 << 20
	run := func(useKernel bool) sim.Duration {
		p, err := testrig.New(4, core.Profile100G(), fabric.DirectCable100G(), 32<<20)
		if err != nil {
			t.Fatal(err)
		}
		k := hllkernel.MustNew(14)
		if err := p.B.DeployKernel(rpcOp, k); err != nil {
			t.Fatal(err)
		}
		var d sim.Duration
		p.Eng.Go("sender", func(pr *sim.Process) {
			start := pr.Now()
			if useKernel {
				params := hllkernel.Params{DataAddress: uint64(p.BufB.Base()), ResultAddress: uint64(p.BufB.Base() + 8<<20), Reset: true}
				if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params.Encode()); err != nil {
					t.Errorf("params: %v", err)
				}
				start = pr.Now()
				if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), n); err != nil {
					t.Errorf("write: %v", err)
				}
			} else {
				if err := p.A.WriteSync(pr, testrig.QPA, uint64(p.BufA.Base()), uint64(p.BufB.Base()), n); err != nil {
					t.Errorf("write: %v", err)
				}
			}
			d = pr.Now().Sub(start)
		})
		p.Run()
		return d
	}
	plain := run(false)
	withHLL := run(true)
	ratio := float64(withHLL) / float64(plain)
	if ratio > 1.05 {
		t.Errorf("Write+HLL/Write = %.3f, kernel must not cost throughput", ratio)
	}
}
