package pcie

import (
	"bytes"
	"testing"

	"strom/internal/hostmem"
	"strom/internal/raceflag"
	"strom/internal/sim"
)

// streamCase is one read issued both ways — ReadHostBorrowed on one rig,
// ReadHostStream on an identical one — so the two can be compared.
type streamCase struct {
	name  string
	off   int // offset of the read in the buffer
	n     int
	stall StallFn
}

func streamCases() []streamCase {
	return []streamCase{
		{name: "64KiB", off: 4096, n: 64 << 10},
		{name: "crosses a 2 MiB page", off: hostmem.HugePageSize - 20000, n: 64 << 10},
		{name: "under a stall window", off: 0, n: 64 << 10,
			stall: func(now sim.Time) sim.Duration { return 7 * sim.Microsecond }},
		{name: "one chunk", off: 128, n: 1408},
		{name: "short last chunk", off: 0, n: 3*1408 + 5},
	}
}

// TestStreamIsTheSameCommand pins what a streamed read may not change: it
// ends when the unstreamed command ends, books the link for as long, and
// counts the same — the only difference is that the bytes come early.
func TestStreamIsTheSameCommand(t *testing.T) {
	const chunk = 1408
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			fill := func(mem *hostmem.Memory, buf *hostmem.Buffer) []byte {
				want := make([]byte, tc.n)
				for i := range want {
					want[i] = byte(i*7 + i>>8)
				}
				if err := mem.WriteVirt(buf.Base()+hostmem.Addr(tc.off), want); err != nil {
					t.Fatal(err)
				}
				return want
			}
			// The reference: one delivery at the command's completion.
			engA, dmaA, memA, bufA := testRig(t, Gen3x16(), 2)
			want := fill(memA, bufA)
			dmaA.SetStall(tc.stall)
			var wholeAt sim.Time
			engA.Schedule(3*sim.Microsecond, func() {
				dmaA.ReadHostBorrowed(bufA.Base()+hostmem.Addr(tc.off), tc.n, func(b []byte, err error) {
					if err != nil || !bytes.Equal(b, want) {
						t.Errorf("whole read: err=%v", err)
					}
					wholeAt = engA.Now()
				})
			})
			engA.Run()

			engB, dmaB, memB, bufB := testRig(t, Gen3x16(), 2)
			fill(memB, bufB)
			dmaB.SetStall(tc.stall)
			var got []byte
			var times []sim.Time
			engB.Schedule(3*sim.Microsecond, func() {
				dmaB.ReadHostStream(bufB.Base()+hostmem.Addr(tc.off), tc.n, chunk, func(b []byte, err error) {
					if err != nil {
						t.Errorf("chunk %d: %v", len(times), err)
					}
					if rest := tc.n - len(got); len(b) != min(chunk, rest) {
						t.Errorf("chunk %d is %d bytes with %d to go", len(times), len(b), rest)
					}
					got = append(got, b...)
					times = append(times, engB.Now())
				})
			})
			engB.Run()

			if !bytes.Equal(got, want) {
				t.Fatal("streamed bytes differ from host memory")
			}
			if nchunks := (tc.n + chunk - 1) / chunk; len(times) != nchunks {
				t.Fatalf("%d chunks, want %d", len(times), nchunks)
			}
			if last := times[len(times)-1]; last != wholeAt {
				t.Errorf("last chunk at %v, the unstreamed command completes at %v", last, wholeAt)
			}
			// Chunk k arrives when only the bytes behind it are left.
			for k, at := range times {
				behind := tc.n - min((k+1)*chunk, tc.n)
				if want := wholeAt.Add(-sim.BytesAt(behind, dmaB.Config().BandwidthGbps)); at != want {
					t.Errorf("chunk %d at %v, want %v", k, at, want)
				}
			}
			if len(times) > 1 && times[0] >= wholeAt {
				t.Error("the first chunk did not arrive before the command completed")
			}
			if a, b := dmaA.Stats(), dmaB.Stats(); a != b {
				t.Errorf("stats differ: whole %+v, streamed %+v", a, b)
			}
			a1, a2 := dmaA.Utilisation()
			b1, b2 := dmaB.Utilisation()
			if a1 != b1 || a2 != b2 {
				t.Errorf("utilisation differs: whole %v/%v, streamed %v/%v", a1, a2, b1, b2)
			}
		})
	}
}

// TestStreamOfflineAndUnmapped: a stream that cannot start fails like any
// read, once; one already in flight when the device goes offline still
// delivers every chunk (its data left the host before power was cut).
func TestStreamOfflineAndUnmapped(t *testing.T) {
	eng, dma, _, buf := testRig(t, Gen3x16(), 1)
	calls := 0
	var gotErr error
	dma.ReadHostStream(hostmem.Addr(1<<40), 8192, 1408, func(b []byte, err error) { calls++; gotErr = err })
	eng.Run()
	if calls != 1 || gotErr == nil {
		t.Errorf("unmapped stream: %d calls, err=%v", calls, gotErr)
	}

	calls, gotErr = 0, nil
	total := 0
	dma.ReadHostStream(buf.Base(), 8192, 1408, func(b []byte, err error) {
		if calls++; calls == 2 {
			dma.SetOffline(true)
		}
		total += len(b)
		gotErr = err
	})
	eng.Run()
	if calls != 6 || total != 8192 || gotErr != nil {
		t.Errorf("in-flight stream: %d calls, %d bytes, err=%v", calls, total, gotErr)
	}
	calls = 0
	dma.ReadHostStream(buf.Base(), 8192, 1408, func(b []byte, err error) { calls++; gotErr = err })
	eng.Run()
	if calls != 1 || gotErr != ErrOffline {
		t.Errorf("offline stream: %d calls, err=%v", calls, gotErr)
	}
}

// TestAllocsStreamChunk: the chunks of a streamed read re-arm one record,
// so a 47-chunk read allocates as little as a one-chunk read: nothing.
func TestAllocsStreamChunk(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	eng, dma, _, buf := testRig(t, Gen3x16(), 1)
	chunks := 0
	got := func([]byte, error) { chunks++ }
	stream := func() {
		dma.ReadHostStream(buf.Base(), 64<<10, 1408, got)
		eng.Run()
	}
	stream()
	if chunks != 47 {
		t.Fatalf("%d chunks, want 47", chunks)
	}
	if n := testing.AllocsPerRun(100, stream); n != 0 {
		t.Errorf("a 47-chunk streamed read allocates %.1f times, want 0", n)
	}
}

// BenchmarkReadHostStream is the host cost of one 64 KiB streamed read:
// what the requester pays to fetch a bulk WRITE's payload and the
// responder a bulk READ's, 47 chunk events on one command record.
func BenchmarkReadHostStream(b *testing.B) {
	eng, dma, _, buf := testRig(b, Gen3x16(), 1)
	done := func([]byte, error) {}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dma.ReadHostStream(buf.Base()+hostmem.Addr(i%16*(64<<10)), 64<<10, 1408, done)
		if i%4 == 3 {
			eng.Run()
		}
	}
	eng.Run()
}
