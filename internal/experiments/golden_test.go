package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"strom/internal/raceflag"
)

// goldenDiff compares a rendered suite with its golden byte for byte.
// Equal bytes return ""; otherwise the message names the first differing
// line (1-based), the title of the table or figure it belongs to — the
// first line of its blank-line-separated block — and both lines. A side
// that ran out of lines is reported as such.
func goldenDiff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	// Everything above line i is common to both sides, so the block's
	// title is read from whichever side still has a line i.
	block := g
	if i >= len(g) {
		block = w
	}
	t := i
	for t > 0 && block[t-1] != "" {
		t--
	}
	line := func(lines []string, i int) string {
		if i >= len(lines) {
			return "<no such line: this side ends here>"
		}
		return strconv.Quote(lines[i])
	}
	return fmt.Sprintf("under %q, line %d:\n  want %s\n  got  %s", block[t], i+1, line(w, i), line(g, i))
}

// cleanSweep is what strombench runs when given no names: the tables,
// figures and ablations in paper order.
func cleanSweep(t *testing.T) []string {
	t.Helper()
	clean, err := ScenarioByName("clean")
	if err != nil {
		t.Fatal(err)
	}
	return clean.Sweep
}

// TestGoldens is the gate on every figure value: testdata/ holds
// strombench's stdout at seed 1 — figures.golden for the default options
// (the run EXPERIMENTS.md quotes), quick-sharded.golden for -quick
// -shards 4 (the sharded engine partitions the RNG differently, so it is
// a different simulation with its own record) — and rendering the same
// sweep must reproduce them exactly. A value that moves is re-recorded
// with `make golden` and reviewed as a text diff.
func TestGoldens(t *testing.T) {
	sharded := Quick()
	sharded.Shards = 4
	for _, tc := range []struct {
		file     string
		opts     Options
		skipRace bool // the default-size run takes minutes under -race
	}{
		{"figures.golden", Default(), true},
		{"quick-sharded.golden", sharded, false},
	} {
		t.Run(tc.file, func(t *testing.T) {
			if testing.Short() || tc.skipRace && raceflag.Enabled {
				t.Skip("renders the whole suite; skipped with -short, the default-size run with -race too")
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if _, err := Render(&got, cleanSweep(t), tc.opts, DefaultParallelism()); err != nil {
				t.Fatal(err)
			}
			if diff := goldenDiff(want, got.Bytes()); diff != "" {
				t.Errorf("output differs from testdata/%s %s\n(recorded on GOARCH=amd64, this is %s; if the change is meant, `make golden` and review the diff)",
					tc.file, diff, runtime.GOARCH)
			}
		})
	}
}

// The gate's fire drill: one changed digit anywhere fails with a message
// that locates it, and a truncated or overlong side fails on the first
// missing line.
func TestGoldenDiff(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "quick-sharded.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if diff := goldenDiff(golden, golden); diff != "" {
		t.Errorf("equal bytes reported as different: %s", diff)
	}
	lines := strings.Split(string(golden), "\n")
	row := 4 + slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "Fig 5b:") })
	if !strings.HasPrefix(lines[row], "1KB") {
		t.Fatalf("line %d of the golden is not Fig 5b's 1KB row: %q", row+1, lines[row])
	}
	off := len(strings.Join(lines[:row], "\n")) + 1 // where the row starts
	digit := off + strings.LastIndexAny(lines[row], "0123456789")
	drifted := bytes.Clone(golden)
	drifted[digit] = '0' + (drifted[digit]-'0'+1)%10
	driftedRow := string(drifted[off : off+len(lines[row])])

	where := []string{`under "Fig 5b: StRoM RoCE NIC throughput (10G)"`, fmt.Sprintf("line %d:", row+1)}
	for _, tc := range []struct {
		name      string
		want, got []byte
		mentions  []string
	}{
		{"one digit changed", golden, drifted,
			[]string{"want " + strconv.Quote(lines[row]), "got  " + strconv.Quote(driftedRow)}},
		{"output ends early", golden, golden[:off-1],
			[]string{"want " + strconv.Quote(lines[row]), "got  <no such line"}},
		{"golden ends early", golden[:off-1], golden,
			[]string{"want <no such line", "got  " + strconv.Quote(lines[row])}},
	} {
		diff := goldenDiff(tc.want, tc.got)
		for _, m := range append(where, tc.mentions...) {
			if !strings.Contains(diff, m) {
				t.Errorf("%s: message lacks %q:\n%s", tc.name, m, diff)
			}
		}
	}
}
