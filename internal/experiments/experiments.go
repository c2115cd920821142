// Package experiments regenerates every table and figure of the paper's
// evaluation (§6, §7) on the simulated testbed: two StRoM machines
// connected by a direct cable. Each generator returns a stats.Figure
// whose rows/series mirror the paper's plot, so the harness (cmd/
// strombench and the root bench_test.go) can print paper-vs-measured
// comparisons.
package experiments

import (
	"fmt"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/testrig"
)

// Options tunes experiment size.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
	// Iterations per latency point (whiskers need a population).
	Iterations int
	// ShuffleScale divides Fig. 11's input sizes (the paper uses
	// 128–1024 MB; 8 simulates 16–128 MB, preserving all ratios).
	ShuffleScale int
	// StreamBytes is the per-point volume for throughput sweeps.
	StreamBytes int
	// Shards selects the sharded testbed: 0 runs everything on one
	// engine (the historical structure); >= 1 places each machine on its
	// own shard of a sim.ShardGroup executed by up to Shards worker
	// goroutines (clamped to the shard count). Results are byte-identical
	// for every value >= 1 — worker count never affects simulation output
	// — while 0 and >= 1 are distinct (different RNG partitioning).
	// Generators whose control flow mutates both machines from one
	// process pin themselves to 0 (unsharded below); the KV runs and
	// every scenario export that streams JSONL are built unsharded
	// outright. Only the incast sweep shards the switched bed.
	Shards int
}

// Default returns the options used by the committed EXPERIMENTS.md run.
func Default() Options {
	return Options{Seed: 1, Iterations: 25, ShuffleScale: 8, StreamBytes: 24 << 20}
}

// Quick returns reduced options for smoke tests.
func Quick() Options {
	return Options{Seed: 1, Iterations: 6, ShuffleScale: 64, StreamBytes: 4 << 20}
}

func (o Options) normalized() Options {
	d := Default()
	if o.Iterations <= 0 {
		o.Iterations = d.Iterations
	}
	if o.ShuffleScale <= 0 {
		o.ShuffleScale = d.ShuffleScale
	}
	if o.StreamBytes <= 0 {
		o.StreamBytes = d.StreamBytes
	}
	return o
}

// profile bundles the per-generation testbed parameters.
type profile struct {
	name string
	cfg  core.Config
	link fabric.LinkConfig
}

func profile10G() profile {
	return profile{name: "10G", cfg: core.Profile10G(), link: fabric.DirectCable10G()}
}

func profile100G() profile {
	return profile{name: "100G", cfg: core.Profile100G(), link: fabric.DirectCable100G()}
}

// newPair builds a testbed for the profile, sharded when o.Shards asks
// for it.
func newPair(o Options, p profile, bufBytes int) (*testrig.Pair, error) {
	if o.Shards > 0 {
		return testrig.NewSharded(o.Seed, p.cfg, p.link, bufBytes, o.Shards)
	}
	return testrig.New(o.Seed, p.cfg, p.link, bufBytes)
}

// unsharded pins a generator to the single-engine testbed: scenarios
// that mutate B-side state mid-run from the A-side control process
// (chaos fault mid-stream flips, crash/restart recovery, rogue
// requesters) are only legal when both machines share an engine.
func (o Options) unsharded() Options { o.Shards = 0; return o }

// sizeLabel formats a byte count like the paper's axes.
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
