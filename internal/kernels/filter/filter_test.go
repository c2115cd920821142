package filter_test

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/kernels/filter"
	"strom/internal/sim"
	"strom/internal/testrig"
)

const rpcOp = 0x07

func TestParamsRoundTrip(t *testing.T) {
	f := func(d, r, op, total uint64, pred uint8) bool {
		in := filter.Params{
			DataAddress: d, ResultAddress: r,
			PredicateOp: filter.Predicate(pred % 5), Operand: op, TotalTuples: total,
		}
		out, err := filter.DecodeParams(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := filter.DecodeParams([]byte{1}); err == nil {
		t.Error("short params accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := filter.Result{Total: 10, Passed: 3, Sum: 99, Min: 1, Max: 50}
	in.Histogram[5] = 7
	out, err := filter.DecodeResult(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Error("round trip mismatch")
	}
	if _, err := filter.DecodeResult([]byte{1}); err == nil {
		t.Error("short result accepted")
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		p       filter.Predicate
		v, op   uint64
		want    bool
		wantStr string
	}{
		{filter.All, 5, 0, true, "ALL"},
		{filter.Equal, 5, 5, true, "EQUAL"},
		{filter.Equal, 5, 6, false, "EQUAL"},
		{filter.NotEqual, 5, 6, true, "NOT_EQUAL"},
		{filter.LessThan, 4, 5, true, "LESS_THAN"},
		{filter.GreaterThan, 6, 5, true, "GREATER_THAN"},
		{filter.Predicate(99), 1, 1, false, "PREDICATE(99)"},
	}
	for _, c := range cases {
		if got := c.p.Eval(c.v, c.op); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v", c.p, c.v, c.op, got)
		}
		if c.p.String() != c.wantStr {
			t.Errorf("String = %s", c.p.String())
		}
	}
}

func TestReferenceAggregates(t *testing.T) {
	r := filter.Reference([]uint64{1, 5, 9, 3}, filter.GreaterThan, 2)
	if r.Total != 4 || r.Passed != 3 || r.Sum != 17 || r.Min != 3 || r.Max != 9 {
		t.Errorf("result = %+v", r)
	}
	empty := filter.Reference(nil, filter.All, 0)
	if empty.Min != ^uint64(0) || empty.Max != 0 {
		t.Error("empty extremes wrong")
	}
}

// runFilter streams tuples through the kernel and returns the result
// block and the materialised output.
func runFilter(t *testing.T, seed int64, tuples []uint64, pred filter.Predicate, operand uint64, materialise bool) (filter.Result, []uint64) {
	t.Helper()
	p, err := testrig.New(seed, core.Profile100G(), fabric.DirectCable100G(), 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := filter.New()
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, len(tuples)*8)
	for i, v := range tuples {
		binary.LittleEndian.PutUint64(data[i*8:], v)
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	dataDst := uint64(0)
	if materialise {
		dataDst = uint64(p.BufB.Base())
	}
	resultVA := p.BufB.Base() + 16<<20
	params := filter.Params{
		DataAddress:   dataDst,
		ResultAddress: uint64(resultVA),
		PredicateOp:   pred,
		Operand:       operand,
	}
	var res filter.Result
	p.Eng.Go("sender", func(pr *sim.Process) {
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params.Encode()); err != nil {
			t.Errorf("params: %v", err)
			return
		}
		if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), len(data)); err != nil {
			t.Errorf("stream: %v", err)
		}
	})
	// B's host polls the result the kernel publishes into its memory.
	p.EngB.Go("poller", func(pr *sim.Process) {
		raw, err := p.B.Host().Poll(pr, p.B.Memory(), resultVA, filter.ResultSize, func(b []byte) bool {
			return binary.LittleEndian.Uint64(b) != 0 // Total lands non-zero
		}, 0)
		if err != nil {
			t.Errorf("poll: %v", err)
			return
		}
		res, err = filter.DecodeResult(raw)
		if err != nil {
			t.Errorf("decode: %v", err)
		}
	})
	p.Run()
	var out []uint64
	if materialise {
		raw, err := p.B.Memory().ReadVirt(p.BufB.Base(), int(res.Passed)*8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(res.Passed); i++ {
			out = append(out, binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return res, out
}

func TestFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tuples := make([]uint64, 20000)
	for i := range tuples {
		tuples[i] = rng.Uint64()
	}
	operand := uint64(1) << 63
	res, out := runFilter(t, 1, tuples, filter.LessThan, operand, true)
	want := filter.Reference(tuples, filter.LessThan, operand)
	if res != want {
		t.Errorf("kernel result != reference\n got %+v\nwant %+v", res.Passed, want.Passed)
	}
	// The materialised output is exactly the passing tuples, in order.
	i := 0
	for _, v := range tuples {
		if v < operand {
			if out[i] != v {
				t.Fatalf("output[%d] = %#x, want %#x", i, out[i], v)
			}
			i++
		}
	}
	if uint64(i) != res.Passed {
		t.Errorf("materialised %d, result says %d", i, res.Passed)
	}
}

func TestFilterHistogramSideEffect(t *testing.T) {
	// Pure statistics gathering ([20]): predicate ALL, no materialisation.
	tuples := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := range tuples {
		tuples[i] = rng.Uint64()
	}
	res, _ := runFilter(t, 2, tuples, filter.All, 0, false)
	var total uint64
	for _, h := range res.Histogram {
		total += h
	}
	if total != uint64(len(tuples)) {
		t.Errorf("histogram mass = %d", total)
	}
	if res.Passed != uint64(len(tuples)) {
		t.Errorf("passed = %d", res.Passed)
	}
}

func TestFilterProperty(t *testing.T) {
	f := func(raw []uint64, pred uint8, operand uint64) bool {
		if len(raw) == 0 || len(raw) > 400 {
			return true
		}
		p := filter.Predicate(pred % 5)
		want := filter.Reference(raw, p, operand)
		got, _ := runFilter(t, int64(pred)+3, raw, p, operand, false)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFilterStreamBeforeParams(t *testing.T) {
	p, err := testrig.New10G(3)
	if err != nil {
		t.Fatal(err)
	}
	k := filter.New()
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	done := false
	p.Eng.Schedule(0, func() {
		p.A.PostRPCWrite(testrig.QPA, rpcOp, uint64(p.BufA.Base()), 64, func(error) { done = true })
	})
	p.Run()
	if !done || k.Stats().Errors == 0 {
		t.Errorf("done=%v errors=%d", done, k.Stats().Errors)
	}
}

func TestBucketCoversRange(t *testing.T) {
	if filter.Bucket(0) != 0 {
		t.Error("bucket(0)")
	}
	if filter.Bucket(^uint64(0)) != filter.HistogramBuckets-1 {
		t.Error("bucket(max)")
	}
}
