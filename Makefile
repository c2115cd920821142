GO ?= go

.PHONY: check vet build test race cover recovery protect determinism fuzz bench golden ab soak kv kv-large

# check is the everyday gate: build plus the full -race suite, which
# includes the sharded determinism tests (TestSharded* in
# internal/experiments and the ShardGroup suite in internal/sim) under
# the race detector.
check: build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# test is the tier-1 gate: vet plus the full suite under the race
# detector (the parallel experiment harness and the concurrent telemetry
# determinism tests make every package worth racing). The explicit
# -timeout covers internal/experiments on a single-core host, where the
# racing differential suite runs serially and overshoots go test's
# default 600s per-package limit.
test: vet
	$(GO) test -race -timeout 1800s ./...

race: test

# cover prints the per-package statement-coverage summary.
cover:
	$(GO) test -cover ./...

# recovery runs the failure-recovery suite on its own under the race
# detector: QP state machine, crash/restart, deadlines, reconnects.
recovery:
	$(GO) test -race -run 'Recovery|Crash|Deadline|QPState|Reconnect' ./internal/roce ./internal/core ./internal/experiments .

# protect runs the memory-protection suite on its own under the race
# detector: MR table semantics, the responder NAK matrix at both the
# transport and NIC level, the kernel DMA sandbox, the rogue-requester
# sweep and the invariant-9 fire drill.
protect:
	$(GO) test -race ./internal/mr
	$(GO) test -race -run 'MR|NAKMatrix|RKey|RemoteKey|Protect|Rogue|Invariant9|Sandbox|Revalidat|Fault' ./internal/roce ./internal/core ./internal/kernels/traversal ./internal/experiments .

# determinism runs the sharded-engine determinism suite on its own under
# the race detector: worker-count invariance of every figure generator,
# every scenario's exports (TestScenarios), the chaos schedule digest,
# the sharded KV stream, and the ShardGroup window/barrier machinery.
# internal/experiments takes 580-600 s of it on a two-core host, hence
# the explicit -timeout (go test's default is 600 s per package).
determinism:
	$(GO) test -race -count=1 -timeout 1800s -run 'Shard|Deterministic|ByteIdentical|Scenarios' ./internal/sim ./internal/testrig ./internal/experiments ./internal/kvserve

# kv runs the replicated-KV suite on its own under the race detector:
# slot codec and layout, clean protocol semantics, failover edge cases,
# the sharded streaming cluster, the Pilaf-table tombstone machinery,
# and the chaos-kv sweep with the kv (and kvlarge) scenario exports.
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
# validation never-false-accept, shard window scheduling never reorders
# same-timestamp cross-shard events, switch arbitration conservation
# under random arrival interleavings, extent codec round-trip with any
# single-bit flip detected as torn, the health-payload encoder byte for
# byte against encoding/json).
fuzz:
	$(GO) test ./internal/packet -fuzz=FuzzHeaderRoundTrip -fuzztime=10s
	$(GO) test ./internal/crc -fuzz=FuzzCRCSlicingEquivalence -fuzztime=10s
	$(GO) test ./internal/roce -fuzz=FuzzQPStateMachine -fuzztime=10s
	$(GO) test ./internal/roce -fuzz=FuzzRETHValidation -fuzztime=10s
	$(GO) test ./internal/sim -fuzz=FuzzShardSchedule -fuzztime=10s
	$(GO) test ./internal/telemetry/export -fuzz=FuzzEnvelopeRoundTrip -fuzztime=10s
	$(GO) test ./internal/telemetry/export -fuzz=FuzzHealthEncodeMatchesJSON -fuzztime=10s
	$(GO) test ./internal/fabric -fuzz=FuzzSwitchArbitration -fuzztime=10s
	$(GO) test ./internal/kvserve -fuzz=FuzzExtentCodec -fuzztime=10s

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

# bench runs the microbenchmarks (macro benches plus the scheduler and
# process switch, telemetry, the scrape tick, the completion poll, packet,
# crc, pcie (incl. the 47-chunk streamed read), roce and NIC hot paths,
# and, with their simulated latency as sim-us/op beside ns/op, the 64 KiB
# bulk WRITE/READ on the 100 G pair and the KV client's Put/PutLarge/Get)
# and one quick chaos-recovery sweep.
bench:
	$(GO) test -bench=. -benchmem . ./internal/sim ./internal/telemetry ./internal/telemetry/export ./internal/cpu ./internal/packet ./internal/crc ./internal/pcie ./internal/roce ./internal/core ./internal/kvserve
	$(GO) run ./cmd/strombench -quick chaos-recovery > /dev/null

# golden re-records the two committed records of the figures, the stdout
# of the default and of the -quick -shards 4 suite run, which TestGoldens
# (internal/experiments) compares byte for byte. Figure values are
# deterministic at seed 1, so on a clean tree it leaves `git diff
# --exit-code` clean; after a change that moves a value, the diff of the
# two text files is what gets reviewed.
golden:
	$(GO) run ./cmd/strombench > internal/experiments/testdata/figures.golden
	$(GO) run ./cmd/strombench -quick -shards 4 > internal/experiments/testdata/quick-sharded.golden

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
ab:
	rm -rf $(AB_DIR) && mkdir -p $(AB_DIR)
	git clone --quiet --shared --no-checkout . $(AB_DIR)/base && git -C $(AB_DIR)/base checkout --quiet --detach $$(git rev-parse $(BASE))
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
