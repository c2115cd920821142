package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"strom/internal/experiments"
)

func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		args     []string
		want     []string // experiments to run; nil = error
		wantErr  string
	}{
		{scenario: "clean", args: []string{"fig7", "table1"}, want: []string{"fig7", "table1"}},
		{scenario: "kv", want: []string{"chaos-kv"}},
		{scenario: "kvlarge", want: []string{"chaos-kv-large"}},
		{scenario: "incast", want: []string{"chaos-incast"}},
		{scenario: "incast", args: []string{"table1"}, want: []string{"table1"}},
		{scenario: "chaos", want: []string{"chaos-loss", "chaos-flap", "chaos-recovery", "chaos-protect", "chaos-incast", "chaos-kv", "chaos-kv-large"}},
		{scenario: "kv-large", wantErr: "clean, chaos, incast, kv, kvlarge"},
		{scenario: "", wantErr: "unknown scenario"},
		{scenario: "chaos,kv", wantErr: "unknown scenario"},
	} {
		sc, names, err := resolve(tc.scenario, tc.args)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("resolve(%q, %v): error %v, want one mentioning %q", tc.scenario, tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil || sc.Name != tc.scenario || !slices.Equal(names, tc.want) {
			t.Errorf("resolve(%q, %v) = %q, %v, %v; want %v", tc.scenario, tc.args, sc.Name, names, err, tc.want)
		}
	}
	// The default scenario with no names is the whole suite, led by the
	// static tables.
	_, names, err := resolve("clean", nil)
	if err != nil || len(names) < 20 || !slices.Equal(names[:3], []string{"table1", "table2", "resources"}) {
		t.Errorf("resolve(clean) = %v, %v; want the whole suite after table1 table2 resources", names, err)
	}
}

// The stream gate's fire drill: export passes the clean scenario as
// registered, and fails it once the contract requires a rule the stream
// cannot trip or stops allowing one it does.
func TestExportGatesTheStream(t *testing.T) {
	clean, _, err := resolve("clean", nil)
	if err != nil {
		t.Fatal(err)
	}
	deaf := clean
	deaf.Require = append([]string{"kv-heartbeat"}, clean.Require...)
	strict := clean
	strict.Allow = []string{"fcs-err"}
	for _, tc := range []struct {
		name    string
		sc      experiments.Scenario
		wantErr string
	}{
		{"as registered", clean, ""},
		{"requires a rule that cannot fire", deaf, "required alert kv-heartbeat stayed silent"},
		{"disallows a rule that fires", strict, "unexpected alert out-discards"},
	} {
		path := filepath.Join(t.TempDir(), "stream.jsonl")
		err := export(tc.sc, experiments.Quick(), "", "", path)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
		if st, serr := os.Stat(path); serr != nil || st.Size() == 0 {
			t.Errorf("%s: stream not written before the gate ran: %v", tc.name, serr)
		}
	}
}

// -csv DIR creates DIR before anything runs: README's own `-csv out
// fig5a` works on a fresh checkout, and a DIR that cannot exist fails
// before a generator has run or a byte has been printed.
func TestRunCreatesCSVDir(t *testing.T) {
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "out", "csv")
	var stdout bytes.Buffer
	if err := run(&stdout, []string{"table1", "fig5a"}, experiments.Quick(), 1, dir); err != nil {
		t.Fatalf("run with a -csv directory that does not exist yet: %v", err)
	}
	if csv, err := os.ReadFile(filepath.Join(dir, "fig5a.csv")); err != nil || len(csv) == 0 {
		t.Errorf("fig5a.csv not written: %v", err)
	}
	if !strings.Contains(stdout.String(), "Table 1.") || !strings.Contains(stdout.String(), "Fig 5a:") {
		t.Errorf("stdout lacks the table or the figure:\n%s", stdout.String())
	}

	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	err := run(&stdout, []string{"fig5a"}, experiments.Quick(), 1, filepath.Join(file, "csv"))
	if err == nil || !strings.Contains(err.Error(), "-csv") || stdout.Len() != 0 {
		t.Errorf("run with -csv under a regular file: error %v, %d bytes printed; want a -csv error and nothing printed", err, stdout.Len())
	}
}
