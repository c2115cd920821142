package packet

import (
	"sync"
	"testing"
)

// TestFrameListConcurrentOwners: the free list is shared by every
// simulation in the process, so the -j workers take and return buffers
// from several goroutines at once. Each buffer a goroutine holds is
// stamped with its owner and checked before it goes back: a buffer
// handed to two owners at once, or lost from the list under contention,
// shows as a stamp another goroutine overwrote.
func TestFrameListConcurrentOwners(t *testing.T) {
	const workers, rounds, held = 4, 2000, 8
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := make([][]byte, held)
			for r := range rounds {
				for i := range bufs {
					bufs[i] = append(GetBuf(), byte(w), byte(r), byte(i))
				}
				for i, b := range bufs {
					if b[0] != byte(w) || b[1] != byte(r) || b[2] != byte(i) {
						t.Errorf("worker %d round %d: buffer %d holds %v: another owner wrote it", w, r, i, b[:3])
						return
					}
					PutBuf(b)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkFrameBuf is the host cost of one frame buffer's round trip
// through the free list: one GetBuf and one PutBuf, 0 allocs.
func BenchmarkFrameBuf(b *testing.B) {
	PutBuf(GetBuf())
	b.ReportAllocs()
	for range b.N {
		PutBuf(GetBuf())
	}
}
