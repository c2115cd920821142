// Package sim provides a deterministic discrete-event simulation engine.
//
// All StRoM components are built on this engine: time advances only when
// events fire, so latency and throughput measurements are exact functions
// of the calibrated cost model rather than of the host machine. Time is
// kept in integer picoseconds, which is fine enough to resolve a single
// byte on a 100 Gbit/s link (80 ps) and wide enough for simulations of
// several days.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a simulation timestamp in picoseconds since the start of the run.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Nanoseconds returns d as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts d to a time.Duration (nanosecond resolution, truncating).
func (d Duration) Std() time.Duration { return time.Duration(int64(d) / int64(Nanosecond)) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d == math.MinInt64: // -d overflows; the picosecond it drops does not show
		return "-" + Duration(math.MaxInt64).String()
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.2fns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the timestamp as a duration since time zero.
func (t Time) String() string { return Duration(t).String() }

// Nanoseconds builds a Duration from a (possibly fractional) nanosecond count.
func Nanoseconds(ns float64) Duration { return Duration(ns * float64(Nanosecond)) }

// BytesAt returns the time to serialize n bytes at a rate of gbps Gbit/s.
func BytesAt(n int, gbps float64) Duration {
	if gbps <= 0 {
		return 0
	}
	// n bytes = 8n bits; at gbps*1e9 bit/s; in ps: 8n / (gbps*1e9) * 1e12.
	return Duration(float64(n) * 8000.0 / gbps)
}

// Cycles returns the duration of n clock cycles at freqMHz.
func Cycles(n int, freqMHz float64) Duration {
	if freqMHz <= 0 {
		return 0
	}
	return Duration(float64(n) * 1e6 / freqMHz)
}
