package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"strom/internal/sim"
	"strom/internal/telemetry"
)

// opKind is what one op asks the program to do.
type opKind uint8

const (
	opWrite     opKind = iota // verbs: PostWrite
	opRead                    // verbs: PostRead
	opTraversal               // kernel-rpc: traversal GET through the kernel
	opConsist                 // kernel-rpc: consistency-kernel read
	opShuffle                 // kernel-rpc: RPC WRITE stream into the shuffle kernel
	opGet                     // kv: Client.Get
	opPut                     // kv: Client.Put
	opPutLarge                // kv: Client.PutLarge
	opDelete                  // kv: Client.Delete
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"verbs.write", "verbs.read", "traversal.Lookup", "consistency.Read", "shuffle.stream",
	"kvserve.Get", "kvserve.Put", "kvserve.PutLarge", "kvserve.Delete",
}

// isRead assigns the kind to the read or the write latency class.
func (k opKind) isRead() bool {
	return k == opRead || k == opTraversal || k == opConsist || k == opGet
}

// op is one pre-generated input: what to do, on which key or source
// offset, with how many bytes. The list is made from the seed in set-up,
// so the program receives only inputs.
type op struct {
	kind opKind
	arg  uint64 // key, or byte offset of the source
	size int    // bytes moved where the workload fixes them (verbs, shuffle)
}

// mixKinds returns n op kinds for clients driving processes, client c
// taking ops c, c+clients, ...: each client's ops have the same fixed
// composition (shares are percentages summing to 100) in a seeded random
// order of their own. Drawing each kind independently would let the
// realised mix, and with it every simulated rate, wander from seed to
// seed.
func mixKinds(rng *rand.Rand, n, clients int, kinds []opKind, shares []int) []opKind {
	out := make([]opKind, n)
	for c := 0; c < clients; c++ {
		mine := (n - c + clients - 1) / clients
		list := make([]opKind, 0, mine)
		for k, kind := range kinds {
			count := mine * shares[k] / 100
			if k == len(kinds)-1 {
				count = mine - len(list)
			}
			for i := 0; i < count; i++ {
				list = append(list, kind)
			}
		}
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for i, kind := range list {
			out[c+i*clients] = kind
		}
	}
	return out
}

// recording is what a round's driver writes down per op. Its slices are
// allocated once per run and reused, so the driver itself allocates
// nothing while a round is timed.
type recording struct {
	lat    []sim.Duration // per op, indexed like the op list
	failed int            // ops that returned an error or missed a deadline
	bytes  uint64         // payload bytes moved (counted in the checked round only)
	first  sim.Time       // simulated time the replay started at
	spin   int            // fire drill: busy-loop iterations per completion, in the driver
	spans  *spanLog       // traced run: benchmark-side spans; nil otherwise
	// The attribution round of a traced KV run (nil otherwise): verbs the
	// client NIC posted per op, and whether a Get was served from an extent.
	verbs   []uint32
	spilled []bool
}

var spinSink uint64

// completed is called by every driver once per finished op.
func (r *recording) completed(i int, d sim.Duration, err error) {
	r.lat[i] = d
	if err != nil {
		r.failed++
	}
	for k := 0; k < r.spin; k++ {
		spinSink += uint64(k)
	}
}

func newRecording(in inputs) *recording {
	return &recording{lat: make([]sim.Duration, len(in.ops))}
}

func (r *recording) reset() {
	r.failed, r.bytes, r.first = 0, 0, 0
}

// roundOpts selects what a round attaches beside the workload itself.
type roundOpts struct {
	check   bool // warm-up round: protocol checkers and every data check
	tel     bool // traced round: telemetry registry and trace buffer
	sharded bool // verbs only: build the pair on a two-shard group with one worker
	corrupt int  // fire drill: flip a destination byte of this op before checking it (0: none)
}

// counter names one count of layer work.
type counter int

const (
	cFired counter = iota
	cTxPackets
	cAcks
	cRetrans
	cTimeouts
	cDoorbells
	cRPCs
	cKernelDMAReads
	cStreamSegs
	cDMACmds
	cDMABytes
	cSplitSegs
	cLinkFrames
	cSwitchFrames
	cPFC
	cECN
	cDiscards
	cTLBLookups // the TLB counts only through a registry: traced rounds
	cTLBMisses
	cHops
	cLookups
	cConsistRereads
	cKVOps
	cKVRetries
	cKVFailovers
	cKVTorn
	numCounters
)

// counts is the layer work of one round, read from the public stats
// getters after the round.
type counts struct {
	n                          [numCounters]uint64
	utilH2C, utilC2H, linkUtil float64 // shares of the whole simulated time
}

// since returns the work done after the snapshot c0 (set-up, such as
// pre-populating a store, is not the round's work). Utilisations stay as
// read.
func (c counts) since(c0 counts) counts {
	for i := range c.n {
		c.n[i] -= c0.n[i]
	}
	return c
}

// testbed is one freshly built instance of the program under a workload.
type testbed interface {
	// drive runs the op list to completion in simulated time.
	drive(ops []op, rec *recording)
	// counts reads the layer counters after drive.
	counts() counts
	// verify returns the data-check failures of a checked round.
	verify(ops []op, rec *recording) []string
	// now is the final simulated time.
	now() sim.Time
	// exports returns the telemetry a traced round attached.
	exports() (*telemetry.Registry, *telemetry.TraceBuffer)
}

// workload is one closed-loop op mix on one testbed shape.
type workload struct {
	name    string
	why     string
	ops     int // ops per round
	clients int // driving client processes
	// generate makes the inputs from the seed: the op list and whatever
	// memory images the testbed is populated with.
	generate func(rng *rand.Rand, n int) (ops []op, images any)
	// setup builds and populates a fresh testbed from the images.
	setup func(images any, seed int64, o roundOpts) (testbed, error)
}

// digest is the simulated-clock fingerprint of a round. Every round of a
// run replays the same inputs on a fresh testbed, so any difference is
// lost determinism and fails the run.
type digest struct {
	end    sim.Time
	fired  uint64
	readPS int64
	writPS int64
	failed int
}

// roundResult is one round's measurements.
type roundResult struct {
	dig     digest
	setupNS int64
	runNS   int64
	cpuNS   int64 // process CPU time (user + system) over the replay
	mallocs uint64
	bytes   uint64
	cnt     counts
}

// runRound builds a testbed, replays ops on it and measures the replay.
func runRound(w *workload, in inputs, seed int64, o roundOpts, rec *recording) (roundResult, testbed, error) {
	ops := in.ops
	rec.reset()
	t0 := time.Now()
	bed, err := w.setup(in.images, seed, o)
	if err != nil {
		return roundResult{}, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	c0 := bed.counts()
	setup := time.Since(t0)
	// Start every round from a collected heap: what a round pays for
	// garbage is then its own garbage.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec.first = bed.now()
	cpu0 := cpuTime()
	t1 := time.Now()
	bed.drive(ops, rec)
	run := time.Since(t1)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	res := roundResult{
		setupNS: setup.Nanoseconds(),
		runNS:   run.Nanoseconds(),
		cpuNS:   cpu.Nanoseconds(),
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		cnt:     bed.counts().since(c0),
	}
	res.dig = digest{end: bed.now(), fired: res.cnt.n[cFired], failed: rec.failed}
	for i, d := range rec.lat {
		if ops[i].kind.isRead() {
			res.dig.readPS += int64(d)
		} else {
			res.dig.writPS += int64(d)
		}
	}
	return res, bed, nil
}

// cpuTime is the CPU time this process has used, on all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simMetrics are the simulated-clock numbers of one round. A closed loop
// on a deterministic model gives most ops of a class the very same
// latency, so a median is a constant of the model and a percentile steps
// between a few values; the mean and the mean of the slowest 1 % move
// with every op and are what the end-to-end metrics use.
type simMetrics struct {
	opsPerS, goodputGbps float64
	readMean, readTail   float64 // µs; tail = mean of the slowest 1 % (p99 and beyond)
	writeMean, writeTail float64
	p999                 float64 // µs, all ops, nearest rank
	// Printed beside the gated metrics, ungated: the textbook percentiles.
	readP50, readP99   float64
	writeP50, writeP99 float64
	reads, writes      int
}

func computeSim(ops []op, rec *recording, end sim.Time) simMetrics {
	var m simMetrics
	var reads, writes []sim.Duration
	for i, d := range rec.lat {
		if ops[i].kind.isRead() {
			reads = append(reads, d)
		} else {
			writes = append(writes, d)
		}
	}
	sortDurations(reads)
	sortDurations(writes)
	m.reads, m.writes = len(reads), len(writes)
	if window := end.Sub(rec.first).Seconds(); window > 0 {
		m.opsPerS = float64(len(ops)) / window
		m.goodputGbps = float64(rec.bytes) * 8 / window / 1e9
	}
	m.readMean, m.readTail = meanUS(reads), meanUS(reads[tailStart(len(reads)):])
	m.writeMean, m.writeTail = meanUS(writes), meanUS(writes[tailStart(len(writes)):])
	m.readP50, m.readP99 = rankUS(reads, 0.50), rankUS(reads, 0.99)
	m.writeP50, m.writeP99 = rankUS(writes, 0.50), rankUS(writes, 0.99)
	all := append(reads, writes...)
	sortDurations(all)
	m.p999 = rankUS(all, 0.999)
	return m
}

// rankUS is the q-quantile of the sorted sample d by nearest rank, in
// microseconds (0 for no samples).
func rankUS(d []sim.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[nearestRank(len(d), q)].Microseconds()
}

func sortDurations(d []sim.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// tailStart is the index of the 99th percentile in a sorted sample of n:
// the slowest 1 % start there.
func tailStart(n int) int {
	if n == 0 {
		return 0
	}
	return nearestRank(n, 0.99)
}

// meanUS is the mean of d in microseconds (0 for no samples).
func meanUS(d []sim.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, x := range d {
		sum += float64(x)
	}
	return sim.Duration(sum / float64(len(d))).Microseconds()
}

func nearestRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func quantileF(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)]
}

// runConfig sizes a run. The zero value of rounds means "as many as fit
// in seconds"; tests pin rounds and shrink ops.
type runConfig struct {
	seed    int64
	seconds float64
	rounds  int     // fixed number of timed rounds; 0 = fill seconds
	ops     int     // ops per round; 0 = the workload's own
	scale   float64 // traced run: share of the isolated-layer iteration counts to run
	spin    int     // fire drill
	corrupt int     // fire drill; 0 for none
}

// endToEndResult is an untraced run: the gated metrics plus what is
// printed beside them.
type endToEndResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	rounds    int
	opsRound  int
	p50Rate   float64
	p90Rate   float64
	sim       simMetrics
	dig       digest
	cnt       counts
}

// inputs is what a run replays: made once from the seed, in set-up.
type inputs struct {
	ops    []op
	images any
}

// generateInputs makes a workload's inputs from the seed.
func generateInputs(w *workload, cfg runConfig) inputs {
	n := cfg.ops
	if n == 0 {
		n = w.ops
	}
	ops, images := w.generate(rand.New(rand.NewSource(cfg.seed)), n)
	return inputs{ops, images}
}

// minTimedRounds is the fewest rounds a time-boxed run accepts, so that
// the best decile is chosen from at least five rounds. Rounds are sized
// (workloads.go) for this many to fit in runSeconds; on a slower machine
// the run takes longer instead of timing fewer.
const minTimedRounds = 48

// checkedRound is the warm-up every run starts with: one round with the
// protocol checkers attached and every data check run. Any check failure
// is an error.
func checkedRound(w *workload, in inputs, cfg runConfig, rec *recording) (roundResult, error) {
	rr, bed, err := runRound(w, in, cfg.seed, roundOpts{check: true, corrupt: cfg.corrupt}, rec)
	if err != nil {
		return rr, err
	}
	if bad := bed.verify(in.ops, rec); len(bad) > 0 {
		return rr, fmt.Errorf("%s: %d data checks failed, first: %s", w.name, len(bad), bad[0])
	}
	return rr, nil
}

// runEndToEnd is the untraced run: one checked warm-up round, then timed
// rounds of identical work. It fails on any data-check failure and on
// any round whose simulated digest differs from the warm-up's.
func runEndToEnd(w *workload, cfg runConfig) (*endToEndResult, error) {
	t0 := time.Now()
	in := generateInputs(w, cfg)
	generate := time.Since(t0).Seconds()
	ops := in.ops
	rec := newRecording(in)
	warm, err := checkedRound(w, in, cfg, rec)
	if err != nil {
		return nil, err
	}
	res := &endToEndResult{
		opsRound:  len(ops),
		attempted: len(ops),
		failed:    rec.failed,
		dig:       warm.dig,
		cnt:       warm.cnt,
		sim:       computeSim(ops, rec, warm.dig.end),
	}

	rec.spin = cfg.spin
	var rates, setups []float64
	var mallocs, bytes uint64
	heap := startHeapSampler()
	start := time.Now()
	for r := 0; ; r++ {
		if cfg.rounds > 0 {
			if r >= cfg.rounds {
				break
			}
		} else if r >= minTimedRounds && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		rr, _, err := runRound(w, in, cfg.seed, roundOpts{}, rec)
		if err != nil {
			return nil, err
		}
		if rr.dig != warm.dig {
			return nil, fmt.Errorf("%s: round %d lost determinism: digest %+v, warm-up %+v", w.name, r, rr.dig, warm.dig)
		}
		rates = append(rates, float64(len(ops))/(float64(rr.runNS)/1e9))
		setups = append(setups, float64(rr.setupNS)/1e9)
		mallocs += rr.mallocs
		bytes += rr.bytes
		res.attempted += len(ops)
		res.failed += rec.failed
	}
	peak := heap.stop()
	res.rounds = len(rates)
	res.p50Rate = quantileF(rates, 0.50)
	// The gated rate is the best decile of the per-round rates: a noisy
	// neighbour only ever slows a round, so the fast rounds are the ones
	// that saw the program alone.
	res.p90Rate = quantileF(rates, 0.90)

	total := float64(res.rounds * len(ops))
	retried := float64(res.cnt.n[cRetrans] + res.cnt.n[cTimeouts] + res.cnt.n[cKVRetries] + res.cnt.n[cKVTorn])
	firstTry := 1 - math.Min(1, (retried+float64(res.dig.failed))/float64(len(ops)))
	res.metrics = map[string]float64{
		"host_ops_per_s":       res.p90Rate,
		"host_allocs_per_op":   float64(mallocs) / total,
		"host_alloc_kb_per_op": float64(bytes) / 1024 / total,
		"host_heap_goal_mb":    peak / (1 << 20),
		"setup_s":              generate + quantileF(setups, 0.50),
		"sim_ops_per_s":        res.sim.opsPerS,
		"sim_goodput_gbps":     res.sim.goodputGbps,
		"sim_read_mean_us":     res.sim.readMean,
		"sim_read_tail_us":     res.sim.readTail,
		"sim_write_mean_us":    res.sim.writeMean,
		"sim_write_tail_us":    res.sim.writeTail,
		"first_try_ok_share":   firstTry,
	}
	return res, nil
}

// heapSampler watches the collector's heap goal while rounds are timed:
// the size the heap is allowed to reach before a cycle must finish, which
// follows what the program keeps live. It is sampled every 2 ms and the
// 90th percentile reported. The heap actually in use peaks at the goal
// when the collector gets its share of a processor and overshoots it by
// a varying amount when a neighbour takes that processor away, so the
// goal repeats from run to run where the raw peak does not.
type heapSampler struct {
	quit chan struct{}
	done chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		goals := make([]float64, 0, 1<<14)
		for {
			select {
			case <-h.quit:
				h.done <- quantileF(goals, 0.90)
				return
			case <-tick.C:
				metrics.Read(sample)
				goals = append(goals, float64(sample[0].Value.Uint64()))
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it and returns the 90th percentile
// of the heap goal, in bytes.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.done
}
