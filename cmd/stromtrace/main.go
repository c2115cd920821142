// Command stromtrace runs a single hash-table GET through the traversal
// kernel with the structured telemetry layer attached, and dumps the
// timeline — a debugging view of what happens between postRpc and the
// response landing in the requester's memory: BTH opcodes on the wire,
// the kernel's FSM states, DMA round trips, and the end-to-end RPC span.
//
// Usage:
//
//	stromtrace [-trace FILE] [-metrics FILE]
//
// By default the timeline is rendered as text on stdout. -trace also
// writes it as Chrome trace-event JSON (load in ui.perfetto.dev or
// chrome://tracing); -metrics writes the metrics registry as JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/testrig"
)

func main() {
	traceOut := flag.String("trace", "", "also write the timeline as Perfetto trace JSON to this file")
	metricsOut := flag.String("metrics", "", "also write the metrics registry as JSON to this file")
	flag.Parse()

	pair, err := testrig.New10G(1)
	if err != nil {
		log.Fatal(err)
	}
	const rpcOp = 0x01
	if err := pair.B.DeployKernel(rpcOp, traversal.New(0)); err != nil {
		log.Fatal(err)
	}
	tel := pair.Instrument()

	region := kvstore.NewRegion(pair.B.Memory(), pair.BufB)
	ht, err := kvstore.BuildHashTable(region, 64)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	key := rng.Uint64()
	value := make([]byte, 96)
	rng.Read(value)
	if err := ht.Put(key, value); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== GET(key=%#x) via the traversal kernel, 10G testbed ===\n", key)
	var got []byte
	pair.Eng.Go("client", func(p *sim.Process) {
		got, err = traversal.Lookup(p, pair.A, testrig.QPA, rpcOp,
			ht.TraversalParams(key, len(value), pair.BufA.Base()))
		if err != nil {
			log.Fatal(err)
		}
	})
	pair.StartProbes(tel, 2*sim.Microsecond)
	end := pair.Run()

	if err := tel.Trace.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== complete at %v; value (%d bytes) visible after polling; A sent %d frames, B sent %d frames ===\n",
		end, len(got), pair.A.Stack().Stats().TxPackets, pair.B.Stack().Stats().TxPackets)

	if *traceOut != "" {
		if err := writeFile(*traceOut, tel.Trace.WriteJSON); err != nil {
			log.Fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, tel.Registry.WriteJSON); err != nil {
			log.Fatal(err)
		}
	}
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
