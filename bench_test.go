package strom_test

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation. Each benchmark regenerates its figure on the
// simulated testbed and reports the figure's headline numbers as custom
// metrics, so `go test -bench` output can be compared against the paper
// directly. The full text renderings (used for EXPERIMENTS.md) come from
// cmd/strombench.

import (
	"strings"
	"testing"

	"strom/internal/experiments"
	"strom/internal/fpga"
	"strom/internal/stats"
)

// benchOpts keeps a full -bench=. run in the minutes range; cmd/
// strombench runs the bigger default (and -full) configurations.
func benchOpts() experiments.Options {
	o := experiments.Quick()
	o.Iterations = 10
	return o
}

func reportPoint(b *testing.B, fig *stats.Figure, series, label, unit string) {
	b.Helper()
	v, ok := fig.Lookup(series, label)
	if !ok {
		b.Fatalf("missing %s/%s", series, label)
	}
	name := strings.NewReplacer(" ", "_", ":", "").Replace(series) + "@" + label + "_" + unit
	b.ReportMetric(v, name)
}

func runFigure(b *testing.B, gen func(experiments.Options) (*stats.Figure, error)) *stats.Figure {
	b.Helper()
	var fig *stats.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = gen(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

func BenchmarkFig5aLatency10G(b *testing.B) {
	fig := runFigure(b, experiments.Fig5aLatency10G)
	reportPoint(b, fig, "StRoM: Write", "64B", "us")
	reportPoint(b, fig, "StRoM: Read", "64B", "us")
	reportPoint(b, fig, "StRoM: Write", "1KB", "us")
}

func BenchmarkFig5bThroughput10G(b *testing.B) {
	fig := runFigure(b, experiments.Fig5bThroughput10G)
	reportPoint(b, fig, "StRoM: Write", "1MB", "gbps")
	reportPoint(b, fig, "StRoM: Read", "1MB", "gbps")
}

func BenchmarkFig5cMessageRate10G(b *testing.B) {
	fig := runFigure(b, experiments.Fig5cMessageRate10G)
	reportPoint(b, fig, "StRoM: Write", "64B", "Mmsgs")
	reportPoint(b, fig, "StRoM: Read", "64B", "Mmsgs")
}

func BenchmarkFig7LinkedList(b *testing.B) {
	fig := runFigure(b, experiments.Fig7LinkedList)
	reportPoint(b, fig, "RDMA READ", "32", "us")
	reportPoint(b, fig, "StRoM", "32", "us")
	reportPoint(b, fig, "TCP-based RPC", "32", "us")
}

func BenchmarkFig8HashTable(b *testing.B) {
	fig := runFigure(b, experiments.Fig8HashTable)
	reportPoint(b, fig, "RDMA READ", "1KB", "us")
	reportPoint(b, fig, "StRoM", "1KB", "us")
	reportPoint(b, fig, "TCP-based RPC", "1KB", "us")
}

func BenchmarkFig9Consistency(b *testing.B) {
	fig := runFigure(b, experiments.Fig9Consistency)
	reportPoint(b, fig, "READ", "4KB", "us")
	reportPoint(b, fig, "READ+SW", "4KB", "us")
	reportPoint(b, fig, "StRoM", "4KB", "us")
}

func BenchmarkFig10FailureRate(b *testing.B) {
	fig := runFigure(b, experiments.Fig10FailureRate)
	reportPoint(b, fig, "READ+SW: 4KB", "0.5", "us")
	reportPoint(b, fig, "StRoM: 4KB", "0.5", "us")
}

func BenchmarkFig11Shuffle(b *testing.B) {
	fig := runFigure(b, experiments.Fig11Shuffle)
	reportPoint(b, fig, "SW + RDMA WRITE", "1024MB", "s")
	reportPoint(b, fig, "StRoM", "1024MB", "s")
	reportPoint(b, fig, "RDMA WRITE", "1024MB", "s")
}

func BenchmarkFig12aLatency100G(b *testing.B) {
	fig := runFigure(b, experiments.Fig12aLatency100G)
	reportPoint(b, fig, "StRoM: Write", "64B", "us")
	reportPoint(b, fig, "StRoM: Read", "64B", "us")
}

func BenchmarkFig12bThroughput100G(b *testing.B) {
	fig := runFigure(b, experiments.Fig12bThroughput100G)
	reportPoint(b, fig, "StRoM: Write", "1MB", "gbps")
}

func BenchmarkFig12cMessageRate100G(b *testing.B) {
	fig := runFigure(b, experiments.Fig12cMessageRate100G)
	reportPoint(b, fig, "StRoM: Write", "64B", "Mmsgs")
}

func BenchmarkFig13aHLLCPU(b *testing.B) {
	fig := runFigure(b, experiments.Fig13aHLLCPU)
	reportPoint(b, fig, "CPU HLL", "1", "gbps")
	reportPoint(b, fig, "CPU HLL", "8", "gbps")
}

func BenchmarkFig13bHLLStRoM(b *testing.B) {
	fig := runFigure(b, experiments.Fig13bHLLStRoM)
	reportPoint(b, fig, "StRoM: Write+HLL", "16KB", "gbps")
	reportPoint(b, fig, "StRoM: Write", "16KB", "gbps")
}

// Whole-suite benches: the figure set through the worker-pool harness,
// serial vs parallel (the speedup shows up with GOMAXPROCS > 1).

func benchmarkAllFigures(b *testing.B, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.RunGenerators(experiments.Figures(), benchOpts(), parallelism) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Name, r.Err)
			}
		}
	}
}

func BenchmarkAllFiguresSerial(b *testing.B) { benchmarkAllFigures(b, 1) }
func BenchmarkAllFiguresParallel(b *testing.B) {
	benchmarkAllFigures(b, experiments.DefaultParallelism())
}

// Ablation benches: design-parameter sweeps (see DESIGN.md §10.2).

func BenchmarkAblationDoorbell(b *testing.B) {
	fig := runFigure(b, experiments.AblationDoorbell)
	reportPoint(b, fig, "StRoM: Write", "140ns", "Mmsgs")
	reportPoint(b, fig, "StRoM: Write", "25ns", "Mmsgs")
}

func BenchmarkAblationPCIeLatency(b *testing.B) {
	fig := runFigure(b, experiments.AblationPCIeLatency)
	reportPoint(b, fig, "StRoM traversal", "1300ns", "us")
	reportPoint(b, fig, "StRoM traversal", "80ns", "us")
}

func BenchmarkAblationMTU(b *testing.B) {
	fig := runFigure(b, experiments.AblationMTU)
	reportPoint(b, fig, "StRoM: Write", "1408B", "gbps")
	reportPoint(b, fig, "StRoM: Write", "256B", "gbps")
}

func BenchmarkAblationReadDepth(b *testing.B) {
	fig := runFigure(b, experiments.AblationReadDepth)
	reportPoint(b, fig, "StRoM: Read", "1", "gbps")
	reportPoint(b, fig, "StRoM: Read", "16", "gbps")
}

func BenchmarkAblationLoss(b *testing.B) {
	fig := runFigure(b, experiments.AblationLoss)
	reportPoint(b, fig, "StRoM: Write", "0", "gbps")
	reportPoint(b, fig, "StRoM: Write", "0.01", "gbps")
}

func BenchmarkAblationGetOps(b *testing.B) {
	fig := runFigure(b, experiments.AblationGetOps)
	reportPoint(b, fig, "RDMA READ x2", "8", "Mops")
	reportPoint(b, fig, "StRoM traversal", "8", "Mops")
}

func BenchmarkTable3Resources(b *testing.B) {
	var r10, r100 fpga.Resources
	for i := 0; i < b.N; i++ {
		r10 = fpga.NICUsage(fpga.NICParams{DataPathBytes: 8, NumQPs: 500})
		r100 = fpga.NICUsage(fpga.NICParams{DataPathBytes: 64, NumQPs: 500})
	}
	b.ReportMetric(float64(r10.LUTs), "10G_LUTs")
	b.ReportMetric(float64(r10.BRAMs), "10G_BRAMs")
	b.ReportMetric(float64(r100.LUTs), "100G_LUTs")
	b.ReportMetric(float64(r100.BRAMs), "100G_BRAMs")
}

// TestTable1Opcodes and TestTable2Parameters pin the non-measured tables.
func TestTable1Opcodes(t *testing.T) {
	out := experiments.Table1()
	for _, want := range []string{"11000", "11001", "11010", "11011", "11100", "RDMA RPC WRITE Only"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2Parameters(t *testing.T) {
	out := experiments.Table2()
	for _, want := range []string{"remoteAddress", "valueSize", "key", "keyMask",
		"predicateOpCode", "valuePtrPosition", "isRelativePosition",
		"nextElementPtrPos", "nextElementPtrValid"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}
