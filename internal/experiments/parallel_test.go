package experiments

import (
	"bytes"
	"testing"
)

// fastGens picks generators that finish in tens of milliseconds under
// Quick(), so the race and determinism checks stay cheap enough to run
// under -race in every CI pass.
func fastGens(t *testing.T) []Generator {
	t.Helper()
	want := map[string]bool{"fig5a": true, "fig7": true, "fig9": true, "abl-pcie": true}
	var gens []Generator
	for _, g := range append(Figures(), Ablations()...) {
		if want[g.Name] {
			gens = append(gens, g)
		}
	}
	if len(gens) != len(want) {
		t.Fatalf("found %d of %d fast generators", len(gens), len(want))
	}
	return gens
}

// TestRunGeneratorsDeterministicAcrossParallelism is the cross-engine
// determinism contract: every generator owns private engines, so the
// rendered figures must be byte-identical at any parallelism.
func TestRunGeneratorsDeterministicAcrossParallelism(t *testing.T) {
	gens := fastGens(t)
	o := Quick()
	serial := RunGenerators(gens, o, 1)
	for _, parallelism := range []int{2, 4, 8} {
		parallel := RunGenerators(gens, o, parallelism)
		if len(parallel) != len(serial) {
			t.Fatalf("parallelism %d: %d results, want %d", parallelism, len(parallel), len(serial))
		}
		for i, r := range parallel {
			if r.Err != nil {
				t.Fatalf("parallelism %d: %s: %v", parallelism, r.Name, r.Err)
			}
			if r.Name != serial[i].Name {
				t.Fatalf("parallelism %d: result %d is %s, want %s (input order lost)",
					parallelism, i, r.Name, serial[i].Name)
			}
			if got, want := r.Fig.String(), serial[i].Fig.String(); got != want {
				t.Errorf("parallelism %d: %s output differs from serial run:\n%s\nvs\n%s",
					parallelism, r.Name, got, want)
			}
		}
	}
}

// TestRunGeneratorsRace exists to be run under -race: several workers
// building private engines and testbeds concurrently, twice over, to
// shake out any shared mutable state between generators.
func TestRunGeneratorsRace(t *testing.T) {
	gens := fastGens(t)
	for round := 0; round < 2; round++ {
		for _, r := range RunGenerators(gens, Quick(), 3) {
			if r.Err != nil {
				t.Fatalf("round %d: %s: %v", round, r.Name, r.Err)
			}
			if r.Fig == nil {
				t.Fatalf("round %d: %s: nil figure", round, r.Name)
			}
		}
	}
}

// TestRunGeneratorsEdgeCases pins the harness corner cases.
func TestRunGeneratorsEdgeCases(t *testing.T) {
	if got := RunGenerators(nil, Quick(), 4); len(got) != 0 {
		t.Errorf("RunGenerators(nil) = %v", got)
	}
	gens := fastGens(t)[:1]
	for _, parallelism := range []int{-1, 0, 1, 100} {
		res := RunGenerators(gens, Quick(), parallelism)
		if len(res) != 1 || res[0].Err != nil || res[0].Fig == nil {
			t.Errorf("parallelism %d: bad result %+v", parallelism, res)
		}
		if res[0].Elapsed <= 0 {
			t.Errorf("parallelism %d: missing Elapsed", parallelism)
		}
	}
}

// TestRunAllParallelMatchesSerial checks the suite renderer at the
// writer level, on the whole clean sweep at reduced options: same bytes
// for any worker count. (The strombench binary adds nothing to stdout on
// top.)
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("the whole sweep is seconds-long; skipped with -short")
	}
	var serial, parallel bytes.Buffer
	if _, err := Render(&serial, cleanSweep(t), Quick(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Render(&parallel, cleanSweep(t), Quick(), 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Error("Render output differs between parallelism 1 and 4")
	}
}

// Generators whose testbeds are sharded must also be safe to run
// concurrently with each other (the -j harness): each run owns a private
// shard group.
func TestShardedGeneratorsConcurrent(t *testing.T) {
	gens := []Generator{
		{"fig5a", Fig5aLatency10G},
		{"fig9", Fig9Consistency},
		{"fig13b", Fig13bHLLStRoM},
		{"abl-mtu", AblationMTU},
	}
	o := Options{Seed: 1, Iterations: 4, ShuffleScale: 128, StreamBytes: 2 << 20}
	results := RunGenerators(gens, o, 4)
	serial := RunGenerators(gens, o, 1)
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", results[i].Name, results[i].Err)
		}
		if got, want := results[i].Fig.String(), serial[i].Fig.String(); got != want {
			t.Errorf("%s differs between -j 4 and -j 1", results[i].Name)
		}
	}
}
