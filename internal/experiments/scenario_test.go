package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"strom/internal/telemetry/export"
)

// scenarioRun is what the scenario tests share of one registry entry's
// export at Quick(): the small exports, the parsed stream, and the
// verdicts of the checks every scenario owes.
type scenarioRun struct {
	metrics, trace []byte
	tail           *export.Tail
	err            error // the export failed, the re-run differed, or the stream broke its alert contract
}

var (
	scenarioMu   sync.Mutex
	scenarioRuns = map[string]*scenarioRun{}
)

// matchWriter checks that what is written to it repeats want.
type matchWriter struct {
	want *bufio.Reader
	buf  []byte
	diff bool
}

func (w *matchWriter) Write(p []byte) (int, error) {
	if cap(w.buf) < len(p) {
		w.buf = make([]byte, len(p))
	}
	got := w.buf[:len(p)]
	if _, err := io.ReadFull(w.want, got); err != nil || !bytes.Equal(got, p) {
		w.diff = true
	}
	return len(p), nil
}

// matched reports whether the writes repeated want to its end.
func (w *matchWriter) matched() bool {
	_, err := w.want.ReadByte()
	return !w.diff && err == io.EOF
}

// runScenario exports the named scenario twice — the second time with a
// Shards value the export must ignore — and holds the stream to the
// scenario's alert contract. The result is cached: the content tests
// of one scenario read the run TestScenarios already paid for. The
// stream (170 MB for incast) goes through a file, not the heap.
func runScenario(t *testing.T, name string) *scenarioRun {
	t.Helper()
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if r := scenarioRuns[name]; r != nil {
		return r
	}
	sc, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := os.Create(filepath.Join(t.TempDir(), name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	rewind := func() *bufio.Reader {
		if _, err := stream.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		return bufio.NewReaderSize(stream, 1<<20)
	}
	r := &scenarioRun{}
	scenarioRuns[name] = r
	var m, tr bytes.Buffer
	if r.err = sc.Export(Quick(), Exports{Metrics: &m, Trace: &tr, JSONL: stream}); r.err != nil {
		return r
	}
	r.metrics, r.trace = m.Bytes(), tr.Bytes()
	if r.tail, r.err = export.ReadAll(rewind()); r.err != nil {
		return r
	}
	if r.tail.Events == 0 || len(r.metrics) == 0 || len(r.trace) == 0 {
		r.err = fmt.Errorf("an export is empty: %d stream events, %d B of metrics, %d B of trace", r.tail.Events, len(r.metrics), len(r.trace))
		return r
	}
	again := Quick()
	again.Shards = 4
	ws := []*matchWriter{{want: bufio.NewReader(bytes.NewReader(r.metrics))}, {want: bufio.NewReader(bytes.NewReader(r.trace))}, {want: rewind()}}
	if r.err = sc.Export(again, Exports{Metrics: ws[0], Trace: ws[1], JSONL: ws[2]}); r.err != nil {
		return r
	}
	for i, what := range []string{"metrics", "trace", "jsonl"} {
		if !ws[i].matched() {
			r.err = fmt.Errorf("%s export differs on a second run with Shards=4", what)
			return r
		}
	}
	r.err = sc.gateTail(r.tail)
	return r
}

// Every registry entry's exports are pure functions of Options — byte
// for byte the same on a second run, whatever Shards says — and its
// stream keeps its alert contract: every Require rule fired, nothing
// outside Allow did.
func TestScenarios(t *testing.T) {
	runnable := map[string]bool{}
	for name := range tables {
		runnable[name] = true
	}
	for _, g := range Generators() {
		runnable[g.Name] = true
	}
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			for _, rule := range sc.Require {
				if !slices.Contains(sc.Allow, rule) {
					t.Errorf("Require rule %q is not in Allow", rule)
				}
			}
			if len(sc.Sweep) == 0 {
				t.Error("empty Sweep")
			}
			for _, name := range sc.Sweep {
				if !runnable[name] {
					t.Errorf("Sweep names %q, which strombench cannot run", name)
				}
			}
			if r := runScenario(t, sc.Name); r.err != nil {
				t.Error(r.err)
			}
		})
	}
}

// The end-of-run gate reports every violation, not the first: the
// checkers' findings and the scenario's own all reach the error.
func TestBedGateReportsEveryViolation(t *testing.T) {
	b, err := newBed(1, 2, 0, Exports{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.gate("fire drill", "first finding", "second finding")
	if n != 2 || err == nil {
		t.Fatalf("gate = %d, %v; want 2 violations and an error", n, err)
	}
	for _, want := range []string{"fire drill: 2 violations", "first finding", "second finding"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error %q does not mention %q", err, want)
		}
	}
	if n, err := b.gate("clean"); n != 0 || err != nil {
		t.Errorf("gate with nothing to report = %d, %v", n, err)
	}
}

// README's scenario table is the registry's documentation: the sweep,
// must-fire and may-fire columns of every row are checked against
// Scenarios(), so the table cannot drift from what strombench gates on.
func TestReadmeScenarioTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) == 6 && strings.HasPrefix(cells[0], "`") {
			rows[strings.Trim(cells[0], "`")] = cells
		}
	}
	code := func(names []string) string {
		if len(names) == 0 {
			return "—"
		}
		return "`" + strings.Join(names, "` `") + "`"
	}
	for _, sc := range Scenarios() {
		cells, ok := rows[sc.Name]
		if !ok {
			t.Errorf("README.md has no scenario-table row for %q", sc.Name)
			continue
		}
		sweep := code(sc.Sweep)
		if sc.Name == "clean" {
			sweep = "every table, figure and ablation"
		}
		var may []string
		for _, rule := range sc.Allow {
			if !slices.Contains(sc.Require, rule) {
				may = append(may, rule)
			}
		}
		for i, want := range map[int]string{3: sweep, 4: code(sc.Require), 5: code(may)} {
			if got := strings.TrimSpace(cells[i]); got != want {
				t.Errorf("README.md scenario %q, column %d:\n got  %s\n want %s", sc.Name, i+1, got, want)
			}
		}
	}
}
