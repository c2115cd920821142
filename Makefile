GO ?= go

.PHONY: check vet build test race cover recovery protect determinism fuzz bench lines golden ab same soak kv kv-large

# check is the everyday gate: build plus the full -race suite, which
# includes the determinism tests (the -j harness in internal/experiments
# and the ShardGroup suite in internal/sim) under the race detector.
check: build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# test is the tier-1 gate: vet plus the full suite under the race
# detector (the -j experiment harness and the concurrent telemetry
# determinism tests run whole simulations side by side). The explicit
# -timeout covers internal/experiments on a single-core host, where the
# suite under -race overshoots go test's default 600s per-package
# limit. The allocation guards (TestAllocs*)
# skip themselves under -race, so they run once more without it.
test: vet
	$(GO) test -race -timeout 1800s ./...
	$(GO) test -count=1 -run Allocs ./...

race: test

# cover prints the per-package statement-coverage summary.
cover:
	$(GO) test -cover ./...

# recovery runs the failure-recovery suite on its own under the race
# detector: QP state machine, crash/restart, deadlines, reconnects, and
# the frame-ownership fire drills (a resend or READ re-request that
# outlives its ACK, a peer that takes frames by reference, a received
# frame held in a DMA command until its commit, taken frames released
# once across a crash).
recovery:
	$(GO) test -race -run 'Recovery|Crash|Deadline|QPState|Reconnect|KeepsItsBytes|TakesFramesByReference' ./internal/roce ./internal/core ./internal/experiments .

# protect runs the memory-protection suite on its own under the race
# detector: MR table semantics, the responder NAK matrix at both the
# transport and NIC level, the kernel DMA sandbox, the rogue-requester
# sweep and the invariant-9 fire drill.
protect:
	$(GO) test -race ./internal/mr
	$(GO) test -race -run 'MR|NAKMatrix|RKey|Protect|Rogue|Invariant9|Sandbox|Revalidat' ./internal/roce ./internal/core ./internal/kernels/traversal ./internal/experiments .

# determinism runs the determinism suite on its own under the race
# detector: -j invariance of the figure generators, every scenario's
# exports on a second run (TestScenarios), the byte-identical JSONL
# streams, the KV value generators, and the ShardGroup window/barrier
# machinery with its cross-shard order (FuzzShardSchedule's corpus).
# The explicit -timeout keeps a slow host inside go test's limits.
determinism:
	$(GO) test -race -count=1 -timeout 1800s -run 'Shard|Deterministic|ByteIdentical|Scenarios' ./internal/sim ./internal/experiments ./internal/kvserve

# kv runs the replicated-KV suite on its own under the race detector:
# slot codec and layout, clean protocol semantics, failover edge cases,
# the Pilaf-table tombstone machinery, and the chaos-kv sweep with the
# kv (and kvlarge) scenario exports.
kv:
	$(GO) test -race ./internal/kvserve ./internal/kvstore
	$(GO) test -race -run 'KV|Scenarios/kv' ./internal/experiments

# kv-large runs the large-value torn-read suite on its own under the
# race detector: extent codec and spill refs, the consistency-kernel
# read path, torn-read detection/classification/retry, orphan reaping,
# the failover edge cases around the extent-then-publish window, the
# server-side publish-order witness with its fire drill, and the
# chaos-kv-large sweep with the kvlarge scenario export.
kv-large:
	$(GO) test -race -run 'Extent|Large|Torn|Spill|MidRepair|HeldSlot|Publish' ./internal/kvserve
	$(GO) test -race -run 'KVLarge|Scenarios/kvlarge' ./internal/experiments

# fuzz smoke-runs the checked-in fuzzers for 10s each on top of their
# seed corpora (packet header round-trip, CRC slicing equivalence, QP
# state-machine exactly-once under random fault interleavings, RETH
# validation never-false-accept, the duplicate-READ ring hitting and
# missing as the map it replaced did across the 24-bit PSN wrap and
# resets, every shard running its cross-shard
# events in (timestamp, source shard, posting order) and never in the
# window that posted them, backlog items firing in the order of a
# textbook heap holding one event per item, every DMA commit and chunk
# firing where one plain event per booking would under stall and offline
# windows, switch arbitration conservation
# under random arrival interleavings, extent codec round-trip with any
# single-bit flip detected as torn, the recorder's counter deltas against
# a per-key map, every JSONL line the recorder writes decoding and
# re-encoding to the same bytes, host memory backed up to each buffer's end
# reading, writing and watching as if every page were backed whole).
fuzz:
	$(GO) test ./internal/packet -fuzz=FuzzHeaderRoundTrip -fuzztime=10s
	$(GO) test ./internal/crc -fuzz=FuzzCRCSlicingEquivalence -fuzztime=10s
	$(GO) test ./internal/roce -fuzz=FuzzQPStateMachine -fuzztime=10s
	$(GO) test ./internal/roce -fuzz=FuzzRETHValidation -fuzztime=10s
	$(GO) test ./internal/roce -fuzz=FuzzDupReadTableMatchesMap -fuzztime=10s
	$(GO) test ./internal/sim -fuzz=FuzzShardSchedule -fuzztime=10s
	$(GO) test ./internal/sim -fuzz=FuzzBacklogMatchesReference -fuzztime=10s
	$(GO) test ./internal/pcie -fuzz=FuzzDMAQueueMatchesPlainEvents -fuzztime=10s
	$(GO) test ./internal/telemetry/export -fuzz=FuzzEnvelopeRoundTrip -fuzztime=10s
	$(GO) test ./internal/telemetry/export -fuzz=FuzzDeltasMatchMap -fuzztime=10s
	$(GO) test ./internal/fabric -fuzz=FuzzSwitchArbitration -fuzztime=10s
	$(GO) test ./internal/kvserve -fuzz=FuzzExtentCodec -fuzztime=10s
	$(GO) test ./internal/hostmem -fuzz=FuzzMemoryMatchesFlatModel -fuzztime=10s

# soak runs the monitoring gate: every scenario of the registry
# (experiments.Scenarios; README.md "Scenarios" has the table) streams
# its instrumented run as JSONL and strombench gates the stream on the
# scenario's own alert contract — a required alert that stayed silent or
# one outside the allowlist fails the target. clean and incast name a
# table so that only the stream is generated, not their sweep.
soak:
	$(GO) run ./cmd/strombench -quick -scenario clean -jsonl SOAK_clean.jsonl table1 > /dev/null
	$(GO) run ./cmd/strombench -quick -scenario chaos -jsonl SOAK_chaos.jsonl > /dev/null
	$(GO) run ./cmd/strombench -quick -scenario incast -jsonl SOAK_incast.jsonl table1 > /dev/null
	$(GO) run ./cmd/strombench -quick -scenario kv -jsonl SOAK_kv.jsonl > /dev/null
	$(GO) run ./cmd/strombench -quick -scenario kvlarge -jsonl SOAK_kvlarge.jsonl > /dev/null

# bench runs the microbenchmarks (macro benches plus the scheduler, the
# KV beds' timer-heavy heap shape (BenchmarkEngineTimers), a
# 4 096-item backlog burst (BenchmarkBacklogDeep) and the process switch, telemetry, the scrape tick
# (with a reader each kept event is one json.Marshal; without one, rules only), the completion poll, packet,
# crc, one frame buffer's round trip through the free list
# (BenchmarkFrameBuf), the switch's forwarding path, pcie (incl. the
# 47-chunk streamed read and a 4 096-command burst per stream,
# BenchmarkDMABurst), roce and NIC hot paths, and, with their simulated latency as
# sim-us/op beside ns/op, the 64 KiB
# bulk WRITE/READ on the 100 G pair and the KV client's Put/PutLarge/Get)
# and one quick chaos-recovery sweep.
bench:
	$(GO) test -bench=. -benchmem . ./internal/sim ./internal/telemetry ./internal/telemetry/export ./internal/cpu ./internal/packet ./internal/crc ./internal/fabric ./internal/pcie ./internal/roce ./internal/core ./internal/kvserve
	$(GO) run ./cmd/strombench -quick chaos-recovery > /dev/null

# lines prints the five size counts ROADMAP tracks: non-test Go lines
# outside benchmark/, non-test Go lines inside it, all _test.go lines (the
# `make ab` clone under ab.out/ is not counted), the exported identifiers
# under internal/ with how many of them are allowlisted test hooks
# (TestExportedIdentifiersHaveCallers logs it), and DESIGN.md's bytes.
GOFILES = find . \( -name .git -o -name ab.out \) -prune -o -name '*.go'
lines:
	@echo "$$($(GOFILES) ! -name '*_test.go' ! -path './benchmark/*' -print | xargs cat | wc -l) non-test lines outside benchmark/"
	@echo "$$($(GOFILES) ! -name '*_test.go' -path './benchmark/*' -print | xargs cat | wc -l) non-test lines in benchmark/"
	@echo "$$($(GOFILES) -name '*_test.go' -print | xargs cat | wc -l) test lines"
	@$(GO) test -count=1 -v -run '^TestExportedIdentifiersHaveCallers$$' ./internal/experiments | sed -n 's/.*\(exported identifiers under internal\/.*\)/\1/p'
	@echo "$$(wc -c < DESIGN.md) bytes in DESIGN.md"

# golden re-records the committed records of the figures, the stdout of
# the default and of the -quick suite run and of the -quick chaos sweep,
# which TestGoldens (internal/experiments) compares byte for byte, and the
# SHA-256 of every scenario's -metrics, -trace and -jsonl export at -quick
# -seed 1 (table1 is named so that no sweep runs beside the export),
# which TestScenarios compares. Figure values are deterministic at seed
# 1, so on a clean tree it leaves `git diff --exit-code` clean; after a
# change that moves a value, the diff of the text files is what gets
# reviewed, and `make same` shows which export bytes moved.
golden:
	$(GO) run ./cmd/strombench > internal/experiments/testdata/figures.golden
	$(GO) run ./cmd/strombench -quick > internal/experiments/testdata/quick.golden
	$(GO) run ./cmd/strombench -quick -scenario chaos > internal/experiments/testdata/chaos-quick.golden
	set -e; d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; \
	$(GO) build -o $$d/sb ./cmd/strombench; \
	for s in $(SCENARIOS); do \
		$$d/sb -quick -seed 1 -scenario $$s -metrics $$d/$$s.metrics.json -trace $$d/$$s.trace.json -jsonl $$d/$$s.jsonl table1 > /dev/null; \
		(cd $$d && sha256sum $$s.metrics.json $$s.trace.json $$s.jsonl); \
	done > internal/experiments/testdata/exports.sha256

# ab measures a claimed gain — or shows that nothing moved — the way
# choosing-metrics §8 asks: for every workload in WORKLOAD (default: the
# five BENCHMARK.json names), PAIRS alternating runs of the two-clock
# benchmark on BASE (built in a throwaway shared clone: the sandbox
# forbids git worktree) and on this tree, pair i on seed i, the order
# flipped every pair so slow periods of the host fall on both sides, then
# one `benchmark -compare` per workload over its two result sets. Each run
# takes the benchmark's own ~20 s; the target fails if any compare does.
#   make ab BASE=HEAD~1 WORKLOAD="verbs-small kernel-rpc" PAIRS=10
BASE ?= HEAD
WORKLOAD ?= $(shell sed -n 's/^ *"name": "\([a-z]*-[a-z]*\)",$$/\1/p' BENCHMARK.json)
PAIRS ?= 10
AB_DIR ?= $(CURDIR)/ab.out
define ab_base_clone
	git clone --quiet --shared --no-checkout . $(AB_DIR)/base && git -C $(AB_DIR)/base checkout --quiet --detach $$(git rev-parse $(BASE))
endef
ab:
	rm -rf $(AB_DIR) && mkdir -p $(AB_DIR)
	$(ab_base_clone)
	set -e; \
	(cd $(AB_DIR)/base && $(GO) build -o $(AB_DIR)/bench.base ./benchmark); \
	$(GO) build -o $(AB_DIR)/bench.head ./benchmark; \
	status=0; \
	for w in $(WORKLOAD); do \
		run_base() { (cd $(AB_DIR)/base && $(AB_DIR)/bench.base -workload $$w -seed $$1 -out $(AB_DIR)/base.$$w.json); }; \
		run_head() { $(AB_DIR)/bench.head -workload $$w -seed $$1 -out $(AB_DIR)/head.$$w.json; }; \
		for i in $$(seq 1 $(PAIRS)); do \
			if [ $$((i % 2)) -eq 1 ]; then run_base $$i; run_head $$i; else run_head $$i; run_base $$i; fi; \
		done; \
		$(AB_DIR)/bench.head -compare $(AB_DIR)/base.$$w.json $(AB_DIR)/head.$$w.json || status=1; \
	done; \
	exit $$status

# same checks that a change moved no output: it builds strombench at BASE
# (in the shared clone `make ab` uses) and in this tree, runs each of the
# five scenarios at -quick at every seed of SEEDS with -metrics, -trace
# and -jsonl on both, and cmps the files (stdout and the three exports of
# each scenario) and the exit codes. A file missing on both sides counts
# as equal (a run that fails its gate before exporting writes none); one
# missing on one side is a difference. It fails on any difference and
# deletes the JSONL streams as it goes (incast's is ~170 MB); the rest
# stays under $(AB_DIR)/same for a look at what moved.
#   make same BASE=HEAD~1 SEEDS="1 2 3"
SCENARIOS = clean chaos incast kv kvlarge
SEEDS ?= 1
same:
	rm -rf $(AB_DIR)/base $(AB_DIR)/same && mkdir -p $(AB_DIR)/same
	$(ab_base_clone)
	set -e; \
	(cd $(AB_DIR)/base && $(GO) build -o $(AB_DIR)/sb.base ./cmd/strombench); \
	$(GO) build -o $(AB_DIR)/sb.head ./cmd/strombench; \
	status=0; \
	for n in $(SEEDS); do \
		for s in $(SCENARIOS); do \
			for side in base head; do \
				o=$(AB_DIR)/same/$$side.$$s.$$n; \
				rc=0; $(AB_DIR)/sb.$$side -quick -seed $$n -scenario $$s -metrics $$o.metrics.json -trace $$o.trace.json -jsonl $$o.jsonl > $$o.stdout 2>/dev/null || rc=$$?; \
				echo $$rc > $$o.exit; \
			done; \
			for f in stdout metrics.json trace.json jsonl exit; do \
				b=$(AB_DIR)/same/base.$$s.$$n.$$f; h=$(AB_DIR)/same/head.$$s.$$n.$$f; \
				if [ -e $$b ] || [ -e $$h ]; then cmp $$b $$h || status=1; fi; \
			done; \
			rm -f $(AB_DIR)/same/*.$$s.$$n.jsonl; \
			echo "$$s seed $$n: exit $$(cat $(AB_DIR)/same/head.$$s.$$n.exit)"; \
		done; \
	done; \
	exit $$status
