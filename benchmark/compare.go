package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// errRegressed is returned by compareFiles when any metric got worse by
// more than its bound.
var errRegressed = errors.New("at least one metric regressed")

// readRecords loads a -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// byWorkload groups the end-to-end records of one result set.
func byWorkload(recs []record) map[string][]record {
	out := make(map[string][]record)
	for _, r := range recs {
		if !r.Env.Trace {
			out[r.Env.Workload] = append(out[r.Env.Workload], r)
		}
	}
	return out
}

func valuesOf(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// sameLength refuses result sets measured over different run lengths: the
// best-decile rate, the heap goal and the allocation averages all depend
// on how many rounds a run had.
func sameLength(sets ...[]record) error {
	var want float64
	for _, recs := range sets {
		for _, r := range recs {
			if r.Env.Trace {
				continue
			}
			if want == 0 {
				want = r.Env.Seconds
			}
			if r.Env.Seconds != want {
				return fmt.Errorf("%s seed %d measured for %v s, other runs for %v s: run length must be the same on both sides",
					r.Env.Workload, r.Env.Seed, r.Env.Seconds, want)
			}
		}
	}
	return nil
}

// worsening is by how much b is worse than a, as a share of a.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// issueBound holds the bounds of ISSUE 14 that BENCHMARK.json cannot
// declare: the driver refuses a bound narrower than the metric's spread
// over ten runs, which on the machine this was written on has reached 22 %
// for the rate and 28 % for set-up. -compare applies the issue's bounds all
// the same and reports such a spread as unresolved.
var issueBound = map[string]float64{
	"host_ops_per_s": 0.10,
	"setup_s":        0.20,
}

// pairedBound is the bound on a simulated-clock metric compared seed by
// seed. Such a metric repeats exactly for a given seed, so the same code
// gives a change of exactly 0 on every seed and the seed-to-seed spread,
// which the bound in BENCHMARK.json has to cover because the driver
// compares medians over seeds, drops out.
const pairedBound = 0.01

// bySeed pairs the records of two sets by seed and returns, per seed in
// both, by how much B's value of the metric is worse than A's.
func bySeed(spec metricSpec, a, b []record) ([]float64, error) {
	index := func(recs []record) (map[int64]float64, error) {
		m := make(map[int64]float64)
		for _, r := range recs {
			v, ok := r.Result.Metrics[spec.Name]
			if !ok {
				continue
			}
			if old, dup := m[r.Env.Seed]; dup && old != v.Value {
				return nil, fmt.Errorf("%s seed %d: %s read %v and %v in one set: lost determinism",
					r.Env.Workload, r.Env.Seed, spec.Name, old, v.Value)
			}
			m[r.Env.Seed] = v.Value
		}
		return m, nil
	}
	ma, err := index(a)
	if err != nil {
		return nil, err
	}
	mb, err := index(b)
	if err != nil {
		return nil, err
	}
	var out []float64
	for seed, va := range ma {
		if vb, ok := mb[seed]; ok {
			out = append(out, worsening(spec, va, vb))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: the two sets share no seed", spec.Name)
	}
	return out, nil
}

// quartiles returns the three quartiles of v as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is what the driver uses. It needs two values; with fewer all three
// are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 0 {
			return 0, 0, 0
		}
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spreadOf is the distance between the first and third quartile as a
// share of the median.
func spreadOf(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles applies each end-to-end metric's bound to two result
// sets, A the baseline and B the candidate, and prints one row per
// (workload, metric): ok, regressed (B worse than A by more than the
// bound) or unresolved (not regressed, but a spread wider than the bound,
// so "unchanged" cannot be claimed). Host-clock metrics compare the sets'
// medians under the bound BENCHMARK.json declares, or issueBound's where
// that is narrower; simulated-clock metrics compare seed by seed under
// pairedBound; failed_op_share, which is
// expected to be 0 and so cannot carry a relative bound, regresses on any
// increase.
func compareFiles(w io.Writer, pathA, pathB string) error {
	recA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	if err := sameLength(recA, recB); err != nil {
		return err
	}
	a, b := byWorkload(recA), byWorkload(recB)
	regressed := false
	row := func(wl, metric string, ma, mb, worse, sa, sb, bound float64, how string, bad bool) {
		verdict := "ok"
		switch {
		case bad:
			verdict = "regressed"
			regressed = true
		case sa > bound || sb > bound:
			verdict = "unresolved"
		}
		fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %6.0f%% %-8s %s\n",
			wl, metric, ma, mb, worse*100, sa*100, sb*100, bound*100, how, verdict)
	}
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %9s %8s %8s %7s %-8s %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "compared", "verdict")
	for _, wl := range workloads() {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, spec := range endToEnd {
			va, vb := valuesOf(ra, spec.Name), valuesOf(rb, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			if !spec.simulated() {
				bound := spec.Bound
				if b, ok := issueBound[spec.Name]; ok {
					bound = b
				}
				worse := worsening(spec, ma, mb)
				row(wl.name, spec.Name, ma, mb, worse, spreadOf(va), spreadOf(vb), bound, "medians", worse > bound)
				continue
			}
			changes, err := bySeed(spec, ra, rb)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			// The spread that matters here is that of the per-seed changes,
			// already a share of the baseline: 0 for the same code.
			q1, worse, q3 := quartiles(changes)
			row(wl.name, spec.Name, ma, mb, worse, q3-q1, 0, pairedBound, "by seed", worse > pairedBound)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		row(wl.name, "failed_op_share", fa, fb, fb-fa, 0, 0, 0, "absolute", fb > fa)
	}
	if regressed {
		return errRegressed
	}
	return nil
}

// failedShare is the ops that failed over the ops attempted, summed over
// the runs of a set.
func failedShare(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
