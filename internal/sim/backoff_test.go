package sim

import (
	"math/rand"
	"testing"
)

// An uncapped backoff keeps growing until it saturates; it never wraps
// negative, which Process.Sleep would read as no wait at all.
func TestBackoffDelayLargeAttempts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range []Backoff{{}, {Max: Duration(1<<63 - 1)}, {Base: Second, Factor: 10, Jitter: 0.5}} {
		prev := Duration(0)
		for attempt := 0; attempt <= 2000; attempt++ {
			d := b.Delay(attempt, nil)
			if d < prev {
				t.Fatalf("%+v: attempt %d waits %d ps, attempt %d waited %d ps", b, attempt, int64(d), attempt-1, int64(prev))
			}
			if jittered := b.Delay(attempt, rng); jittered <= 0 || jittered > d {
				t.Fatalf("%+v: attempt %d jittered to %d ps, unjittered %d ps", b, attempt, int64(jittered), int64(d))
			}
			if at := Time(Second).Add(d); at < Time(Second) {
				t.Fatalf("%+v: attempt %d waits %d ps, past the end of the clock", b, attempt, int64(d))
			}
			prev = d
		}
	}
}
