package experiments

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"strom/internal/kernels/hllkernel"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// assertions below check the figure *shapes* the paper reports: who wins,
// by roughly what factor, and where the crossovers are.

func lookup(t *testing.T, f interface {
	Lookup(string, string) (float64, bool)
}, series, label string) float64 {
	t.Helper()
	v, ok := f.Lookup(series, label)
	if !ok {
		t.Fatalf("missing point %s/%s", series, label)
	}
	return v
}

// bulkLabels are the payload sizes over which the paper's throughput
// curves are flat at the line rate (Fig. 5b, Fig. 12b).
var bulkLabels = []string{"4KB", "16KB", "64KB", "256KB", "1MB"}

// assertPlateau checks that a write-throughput series does not fall from
// 4 KiB to 1 MiB and ends at or above floor: a data path that stores and
// forwards whole messages bends the curve down at large sizes (9.22 and
// 84.6 Gbit/s at 1 MiB before the payload fetch was cut-through).
func assertPlateau(t *testing.T, fig interface {
	Lookup(string, string) (float64, bool)
}, series string, floor float64) {
	t.Helper()
	prev := 0.0
	for _, label := range bulkLabels {
		v := lookup(t, fig, series, label)
		if v < prev {
			t.Errorf("%s falls at %s: %.2f after %.2f Gbit/s", series, label, v, prev)
		}
		prev = v
	}
	if prev < floor {
		t.Errorf("%s at 1MB = %.2f Gbit/s, want >= %.1f", series, prev, floor)
	}
}

func TestFig5aShape(t *testing.T) {
	fig, err := Fig5aLatency10G(Quick())
	if err != nil {
		t.Fatal(err)
	}
	w64 := lookup(t, fig, "StRoM: Write", "64B")
	w1k := lookup(t, fig, "StRoM: Write", "1KB")
	r64 := lookup(t, fig, "StRoM: Read", "64B")
	if w64 < 1.5 || w64 > 5 {
		t.Errorf("write 64B latency = %.2f us, want low single digits", w64)
	}
	if w1k <= w64 {
		t.Errorf("latency not increasing with payload: %.2f -> %.2f", w64, w1k)
	}
	if r64 <= w64 {
		t.Errorf("read (%.2f) not above write (%.2f) at 64B", r64, w64)
	}
}

func TestFig5bShape(t *testing.T) {
	fig, err := Fig5bThroughput10G(Quick())
	if err != nil {
		t.Fatal(err)
	}
	assertPlateau(t, fig, "StRoM: Write", 9.4)
	peak := lookup(t, fig, "StRoM: Write", "1MB")
	if peak > 9.6 {
		t.Errorf("peak write throughput = %.2f Gbit/s, above the 9.4 ideal goodput", peak)
	}
	small := lookup(t, fig, "StRoM: Write", "64B")
	if small >= peak/2 {
		t.Errorf("64B throughput %.2f should be message-rate bound, far below peak %.2f", small, peak)
	}
	rPeak := lookup(t, fig, "StRoM: Read", "1MB")
	if rPeak < 8.5 {
		t.Errorf("read peak = %.2f", rPeak)
	}
}

func TestFig5cShape(t *testing.T) {
	fig, err := Fig5cMessageRate10G(Quick())
	if err != nil {
		t.Fatal(err)
	}
	w64 := lookup(t, fig, "StRoM: Write", "64B")
	if w64 < 4 || w64 > 7.5 {
		t.Errorf("write message rate = %.2f M/s, want ~7 (doorbell bound)", w64)
	}
	r64 := lookup(t, fig, "StRoM: Read", "64B")
	if r64 >= w64 {
		t.Errorf("read rate %.2f should be below write rate %.2f", r64, w64)
	}
	w4k := lookup(t, fig, "StRoM: Write", "4KB")
	if w4k >= w64 {
		t.Errorf("4KB rate %.2f should be wire bound, below %.2f", w4k, w64)
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7LinkedList(Quick())
	if err != nil {
		t.Fatal(err)
	}
	read4 := lookup(t, fig, "RDMA READ", "4")
	read32 := lookup(t, fig, "RDMA READ", "32")
	strom4 := lookup(t, fig, "StRoM", "4")
	strom32 := lookup(t, fig, "StRoM", "32")
	tcp4 := lookup(t, fig, "TCP-based RPC", "4")
	tcp32 := lookup(t, fig, "TCP-based RPC", "32")
	// READ grows with a full RTT per element; StRoM with ~1.5us per hop.
	if read32 < 2.5*read4 {
		t.Errorf("READ not ~linear: %.1f -> %.1f us", read4, read32)
	}
	if strom32 >= read32/2 {
		t.Errorf("StRoM (%.1f) should be far below READ (%.1f) at length 32", strom32, read32)
	}
	perHopStrom := (strom32 - strom4) / 28
	if perHopStrom < 1.0 || perHopStrom > 2.5 {
		t.Errorf("StRoM per-hop = %.2f us, want ~1.5 (PCIe)", perHopStrom)
	}
	// TCP RPC is flat in the list length.
	if math.Abs(tcp32-tcp4) > 3 {
		t.Errorf("TCP RPC not flat: %.1f vs %.1f", tcp4, tcp32)
	}
	if tcp4 < strom4 {
		t.Errorf("TCP RPC (%.1f) should start above StRoM (%.1f)", tcp4, strom4)
	}
}

func TestFig8Shape(t *testing.T) {
	fig, err := Fig8HashTable(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"64B", "128B", "256B", "512B", "1KB", "2KB", "4KB"} {
		read := lookup(t, fig, "RDMA READ", label)
		strom := lookup(t, fig, "StRoM", label)
		tcp := lookup(t, fig, "TCP-based RPC", label)
		if strom >= read {
			t.Errorf("%s: StRoM %.1f not below READ %.1f", label, strom, read)
		}
		if tcp <= read {
			t.Errorf("%s: TCP %.1f not above READ %.1f", label, tcp, read)
		}
	}
	// Saving one round trip is worth a few microseconds.
	read64 := lookup(t, fig, "RDMA READ", "64B")
	strom64 := lookup(t, fig, "StRoM", "64B")
	if diff := read64 - strom64; diff < 2 || diff > 9 {
		t.Errorf("round-trip saving = %.1f us, want ~5", diff)
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9Consistency(Quick())
	if err != nil {
		t.Fatal(err)
	}
	read4k := lookup(t, fig, "READ", "4KB")
	sw4k := lookup(t, fig, "READ+SW", "4KB")
	strom4k := lookup(t, fig, "StRoM", "4KB")
	swOverhead := (sw4k - read4k) / read4k
	stromOverhead := (strom4k - read4k) / read4k
	if swOverhead < 0.05 {
		t.Errorf("software overhead at 4KB = %.0f%%, want noticeable", swOverhead*100)
	}
	// The kernel stores and forwards the object for its CRC; the plain
	// READ streams. That costs about 1 us, under 8 % at 4 KB (§6.3).
	if stromOverhead <= 0 || stromOverhead >= 0.08 {
		t.Errorf("StRoM overhead at 4KB = %.1f%%, want between 0 and 8%%", stromOverhead*100)
	}
	if sw4k <= strom4k {
		t.Errorf("READ+SW (%.2f) not above StRoM (%.2f) at 4KB", sw4k, strom4k)
	}
	// At small sizes both overheads are marginal.
	read64 := lookup(t, fig, "READ", "64B")
	sw64 := lookup(t, fig, "READ+SW", "64B")
	if (sw64-read64)/read64 > 0.15 {
		t.Errorf("small-object software overhead = %.2f, should be marginal", (sw64-read64)/read64)
	}
}

func TestFig10Shape(t *testing.T) {
	fig, err := Fig10FailureRate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// At 50% failures the software approach pays network RTTs; StRoM
	// pays PCIe re-reads and stays near its baseline.
	sw0 := lookup(t, fig, "READ+SW: 4KB", "0")
	sw50 := lookup(t, fig, "READ+SW: 4KB", "0.5")
	st0 := lookup(t, fig, "StRoM: 4KB", "0")
	st50 := lookup(t, fig, "StRoM: 4KB", "0.5")
	if sw50-sw0 < 2 {
		t.Errorf("READ+SW at 50%% failures only +%.2f us", sw50-sw0)
	}
	if st50-st0 > (sw50-sw0)/2 {
		t.Errorf("StRoM degradation %.2f not well below software %.2f", st50-st0, sw50-sw0)
	}
	// At 0.5% failures nothing moves much.
	swLow := lookup(t, fig, "READ+SW: 64B", "0.005")
	sw064 := lookup(t, fig, "READ+SW: 64B", "0")
	if swLow-sw064 > 1 {
		t.Errorf("0.5%% failures already cost %.2f us", swLow-sw064)
	}
}

func TestFig11Shape(t *testing.T) {
	o := Quick()
	fig, err := Fig11Shuffle(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"128MB", "1024MB"} {
		sw := lookup(t, fig, "SW + RDMA WRITE", label)
		st := lookup(t, fig, "StRoM", label)
		w := lookup(t, fig, "RDMA WRITE", label)
		if st < w {
			t.Errorf("%s: StRoM %.3f below the plain-write lower bound %.3f", label, st, w)
		}
		if st/w > 1.15 {
			t.Errorf("%s: StRoM %.3f not close to plain write %.3f", label, st, w)
		}
		if sw/w < 1.10 || sw/w > 1.8 {
			t.Errorf("%s: SW/WRITE ratio = %.2f, want ~1.25", label, sw/w)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	o := Quick()
	lat10, err := Fig5aLatency10G(o)
	if err != nil {
		t.Fatal(err)
	}
	lat100, err := Fig12aLatency100G(o)
	if err != nil {
		t.Fatal(err)
	}
	// 100 G reduces latency (§7.1).
	for _, label := range []string{"64B", "1KB"} {
		l10 := lookup(t, lat10, "StRoM: Write", label)
		l100 := lookup(t, lat100, "StRoM: Write", label)
		if l100 >= l10 {
			t.Errorf("%s: 100G latency %.2f not below 10G %.2f", label, l100, l10)
		}
	}
	// The 64B-vs-1KB spread shrinks at 100 G (wider data path, §7.1).
	spread10 := lookup(t, lat10, "StRoM: Write", "1KB") - lookup(t, lat10, "StRoM: Write", "64B")
	spread100 := lookup(t, lat100, "StRoM: Write", "1KB") - lookup(t, lat100, "StRoM: Write", "64B")
	if spread100 >= spread10 {
		t.Errorf("payload spread did not shrink: %.2f -> %.2f", spread10, spread100)
	}
	thr, err := Fig12bThroughput100G(o)
	if err != nil {
		t.Fatal(err)
	}
	assertPlateau(t, thr, "StRoM: Write", 93)
	if peak := lookup(t, thr, "StRoM: Write", "1MB"); peak > 95 {
		t.Errorf("100G peak = %.1f Gbit/s, above the wire's goodput", peak)
	}
	mr, err := Fig12cMessageRate100G(o)
	if err != nil {
		t.Fatal(err)
	}
	if r := lookup(t, mr, "StRoM: Write", "64B"); r < 20 || r > 45 {
		t.Errorf("100G message rate = %.1f M/s, want ~40", r)
	}
}

func TestFig13aMatchesPaper(t *testing.T) {
	fig, err := Fig13aHLLCPU(Quick())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"1": 4.64, "2": 9.28, "4": 18.40, "8": 24.40}
	for label, w := range want {
		got := lookup(t, fig, "CPU HLL", label)
		if math.Abs(got-w)/w > 0.06 {
			t.Errorf("%s threads: %.2f Gbit/s, want %.2f", label, got, w)
		}
	}
}

func TestFig13bShape(t *testing.T) {
	fig, err := Fig13bHLLStRoM(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"64B", "1KB", "16KB"} {
		w := lookup(t, fig, "StRoM: Write", label)
		h := lookup(t, fig, "StRoM: Write+HLL", label)
		if math.Abs(h-w)/w > 0.06 {
			t.Errorf("%s: Write+HLL %.1f diverges from Write %.1f", label, h, w)
		}
	}
	if big := lookup(t, fig, "StRoM: Write+HLL", "16KB"); big < 60 {
		t.Errorf("large-payload Write+HLL = %.1f Gbit/s", big)
	}
}

// hllAccuracy exercises the estimation quality end to end (not a
// paper figure, but the invariant the kernel must hold): stream n
// distinct items through the kernel and return the estimate's relative
// error.
func hllAccuracy(o Options, distinct int) (float64, error) {
	o = o.normalized()
	pair, err := newPair(o, profile100G(), 32<<20)
	if err != nil {
		return 0, err
	}
	kern := hllkernel.MustNew(14)
	if err := pair.B.DeployKernel(hllOp, kern); err != nil {
		return 0, err
	}
	data := make([]byte, distinct*8)
	for i := 0; i < distinct; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i)*0x9E3779B97F4A7C15+1)
	}
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), data); err != nil {
		return 0, err
	}
	resultVA := pair.BufB.Base() + 24<<20
	params := hllkernel.Params{ResultAddress: uint64(resultVA), Reset: true}
	var est float64
	err = runClient(pair, func(p *sim.Process) error {
		if err := pair.A.RPCSync(p, testrig.QPA, hllOp, params.Encode()); err != nil {
			return err
		}
		return pair.A.RPCWriteSync(p, testrig.QPA, hllOp, uint64(pair.BufA.Base()), len(data))
	}, func(p *sim.Process) error {
		// The result is polled on machine B's host CPU: the kernel
		// publishes the estimate into B's memory.
		raw, err := pair.B.Host().Poll(p, pair.B.Memory(), resultVA, hllkernel.ResultSize, func(b []byte) bool {
			return binary.LittleEndian.Uint64(b[16:24]) != 0
		}, 0)
		if err != nil {
			return err
		}
		est = math.Float64frombits(binary.LittleEndian.Uint64(raw[8:16]))
		return nil
	})
	if err != nil {
		return 0, err
	}
	return math.Abs(est-float64(distinct)) / float64(distinct), nil
}

func TestHLLAccuracyEndToEnd(t *testing.T) {
	relErr, err := hllAccuracy(Quick(), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if relErr > 0.04 {
		t.Errorf("relative error = %.3f", relErr)
	}
}

func TestTablesRender(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"11000", "11100", "RDMA RPC Params", "reserved"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	t2 := Table2()
	for _, want := range []string{"remoteAddress", "predicateOpCode", "nextElementPtrValid"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	rr := ResourceReport()
	for _, want := range []string{"Table 3", "Virtex-7", "traversal", "hll", "fits: true"} {
		if !strings.Contains(rr, want) {
			t.Errorf("resource report missing %q", want)
		}
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	d := Default()
	if o.Iterations != d.Iterations || o.ShuffleScale != d.ShuffleScale || o.StreamBytes != d.StreamBytes {
		t.Errorf("normalized = %+v", o)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{64: "64B", 1024: "1KB", 4096: "4KB", 1 << 20: "1MB", 1500: "1500B"}
	for n, want := range cases {
		if got := sizeLabel(n); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}
