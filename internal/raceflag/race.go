//go:build race

// Package raceflag tells tests whether the binary was built with the
// race detector, whose runtime instrumentation adds heap allocations of
// its own: allocation guards (testing.AllocsPerRun, MemStats deltas) are
// not meaningful there and skip themselves.
package raceflag

// Enabled reports that the race detector is compiled in.
const Enabled = true
