//go:build !race

package raceflag

// Enabled: see race.go.
const Enabled = false
