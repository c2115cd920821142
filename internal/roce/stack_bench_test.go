package roce

import (
	"testing"

	"strom/internal/fabric"
	"strom/internal/sim"
)

// Benchmarks of the simulator's real-time cost: how fast the protocol
// engine chews through simulated traffic (packets encoded, decoded,
// acknowledged, completed).

func benchPair(b *testing.B) *pair {
	b.Helper()
	eng := sim.NewEngine(1)
	ha := newMemHandler(eng, 1<<24)
	hb := newMemHandler(eng, 1<<24)
	idA := Identity{MAC: [6]byte{2, 0, 0, 0, 0, 1}}
	idB := Identity{MAC: [6]byte{2, 0, 0, 0, 0, 2}}
	var link *fabric.Link
	a := NewStack(eng, Config10G(), idA, ha, func(f []byte) { link.SendFromA(f) })
	bb := NewStack(eng, Config10G(), idB, hb, func(f []byte) { link.SendFromB(f) })
	link = fabric.NewLink(eng, fabric.DirectCable10G(), a, bb)
	if err := a.CreateQP(1, idB, 2); err != nil {
		b.Fatal(err)
	}
	if err := bb.CreateQP(2, idA, 1); err != nil {
		b.Fatal(err)
	}
	return &pair{eng: eng, a: a, b: bb, ha: ha, hb: hb, link: link}
}

func BenchmarkSimulatedWriteSmall(b *testing.B) {
	p := benchPair(b)
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	p.eng.Schedule(0, func() {
		for i := 0; i < b.N; i++ {
			p.a.PostWrite(1, 0, data, func(error) { done++ })
		}
	})
	p.eng.Run()
	if done != b.N {
		b.Fatalf("completed %d/%d", done, b.N)
	}
}

func BenchmarkSimulatedWriteMTU(b *testing.B) {
	p := benchPair(b)
	data := make([]byte, Config10G().MTUPayload)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	p.eng.Schedule(0, func() {
		for i := 0; i < b.N; i++ {
			p.a.PostWrite(1, 0, data, func(error) { done++ })
		}
	})
	p.eng.Run()
	if done != b.N {
		b.Fatalf("completed %d/%d", done, b.N)
	}
}

func BenchmarkSimulatedRead4KB(b *testing.B) {
	p := benchPair(b)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var post func()
	post = func() {
		if done >= b.N {
			return
		}
		p.a.PostRead(1, 0, 0, 4096, 0, func(off int, chunk []byte, ack func()) { ack() }, func(error) {
			done++
			post()
		})
	}
	p.eng.Schedule(0, post)
	p.eng.Run()
	if done != b.N {
		b.Fatalf("completed %d/%d", done, b.N)
	}
}
