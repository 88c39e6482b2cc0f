GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-json fabric-bench loadgen-smoke lint loc race-sweep race-rounds race-lanenet fuzz-smoke race-lanes race-lanes-mailbox1 race-routes race-shards race-churn race-coded race-resize

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet always, staticcheck when installed (the CI image
# has it; local checkouts without it still get a green target).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only"; \
	fi

# The size ledger ROADMAP item 3 is judged by: total and non-blank,
# non-comment lines of non-test Go outside bench/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | xargs cat | \
		awk '{ total++ } !/^[[:space:]]*($$|\/\/)/ { code++ } \
		END { printf "non-test Go outside bench/: %d lines, %d non-blank non-comment\n", total, code }'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark suite (space metrics + latency + fabric throughput).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# One-iteration smoke run, as in CI.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Perf trajectory snapshot: triggers/sec (in-process and latency lanes,
# side by side), sweep wall-clock, checker ns/op, the end-to-end loadgen
# numbers (high-level ops/sec + latency percentiles through the async
# client engine on both lanes), the shard-count sweep (aggregate ops/sec
# at 1/2/4/8 shards), the open-loop latency-vs-rate curve with its knee,
# and the replicated-vs-coded bytes-per-server space grid (E25) —
# recorded as BENCH_<date>.json so future PRs have a baseline.
bench-json:
	$(GO) run ./cmd/benchjson -benchtime 100ms

# End-to-end smoke: a short closed-loop run on the latency lane through
# the async client engine — 1000 logical clients on one engine goroutine,
# peak in-flight gated at >= 1000, read validity + sampled linearizability
# checked (the command fails on any violation).
loadgen-smoke:
	$(GO) run ./cmd/loadgen -kind abd-max -atomic -clients 1000 -read-frac 0.5 \
		-lane latency -duration 2s -maxops 100000 -min-inflight 1000

# The fabric dispatch throughput number tracked in the perf trajectory.
fabric-bench:
	$(GO) test -run xxx -bench BenchmarkFabricParallelTrigger -benchtime 2s .

# Sweep-engine suite under the race detector: the exhaustive f=1 schedule
# class over every construction and the parallel-vs-sequential parity test,
# which doubles as the engine's data-race probe. Selected by package and the
# TestExhaustive / TestSweep name prefixes, so new sweep tests join without
# a list edit.
race-sweep:
	$(GO) test -race -count 1 -run 'TestExhaustive|TestSweep' ./internal/runner

# The round engine, the blocking adapter and the collect/push chain under
# the race detector, repeated and at three GOMAXPROCS settings: every
# quorum condition and reducer of the one scatter, the cancellation
# contract on all six constructions and both lanes, and view-change retries
# through a Replace. Selected by package — no name list to rot.
race-rounds:
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/emulation ./internal/emulation/rounds ./internal/emulation/abdcore

# The TCP lane under the race detector, repeated and at three GOMAXPROCS
# settings: frame reader and codecs (golden wire bytes, aliasing, hostile
# peers on both ends), the slot table, the pipelined client and the node,
# reconnect-as-crash and the drain. Selected by package — no name list to
# rot.
race-lanenet:
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/lanenet

# Ten seconds of coverage-guided fuzzing over the frame reader and every
# wire decoder.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzFrameDecode -fuzztime 10s ./internal/lanenet

# Lane-backend suite under the race detector: latency lanes (event loop,
# snapshot scans, coalescing, crash windows) and the chaos suites over the
# latency and TCP lanes (the TCP chaos suite spawns real cmd/lanenode
# processes). The TCP lane's own package runs under race-lanenet.
LANE_TESTS = 'TestLatencyLane|TestCustomLaneBackend|TestScanSnapshot|TestChaosLatencyLaneSweep|TestTCPLane'
race-lanes:
	$(GO) test -race -count 1 -run $(LANE_TESTS) ./internal/fabric ./internal/runner

# The same suite with every lane mailbox clamped to capacity 1: each
# delivery blocks until the event loop dequeues the previous group, so the
# backpressure path (instead of the buffered fast path) carries the whole
# suite.
race-lanes-mailbox1:
	REPRO_LANE_MAILBOX=1 $(GO) test -race -count 1 -run $(LANE_TESTS) ./internal/fabric ./internal/runner

# Route-table suite under the race detector, repeated and at three
# GOMAXPROCS settings: chunk-boundary round-trips, the linear first-touch
# and re-resolution allocation bounds, and resolvers racing two rolling
# Replaces (one epoch bump per moved object). Selected by package and the
# TestRouteTable name prefix, so new table tests join without a list edit.
race-routes:
	$(GO) test -race -count 20 -cpu 1,2,8 -run 'TestRouteTable' ./internal/fabric

# Sharded-store suite under the race detector: deterministic shard
# routing, the multi-engine frontend (client identity, key affinity,
# per-client serialization), crash-per-shard end-to-end runs, the
# multi-table lanenet node, the sharded loadgen paths, and the TCP-lane
# smoke — 2 shards x 3 servers multiplexed over 2 real cmd/lanenode
# processes, plus the 3-process variant that kills a node mid-run.
SHARD_TESTS = 'TestShard|TestBalancedKeys|TestClientIdentity|TestMultiTableNode|TestBindRoundTrip|TestShardedRun|TestOpenLoopCoordinatedOmission|TestRateSweepKnee'
race-shards:
	$(GO) test -race -count 1 -run $(SHARD_TESTS) ./internal/shardstore ./internal/lanenet ./internal/loadgen

# Reconfiguration suite under the race detector: the Replace protocol
# (freeze/drain/transfer/activate, parked-op outcomes, refusals), live
# rolling replacement of every server of every construction under client
# load, the churn chaos net on its pinned seeds (E24), membership
# accounting, the stateful place frames and node drain on the TCP lane,
# and whole-shard reconfiguration through the sharded store (in-process
# and over real cmd/lanenode processes).
CHURN_TESTS = 'TestReplace|TestTriggerOnDepartingServer|TestViewRetryDelay|TestAccounting|TestReconfigureMidFlight|TestChurn|TestLanenodeGracefulDrain|TestPlaceFrameCarriesState|TestDrainFinishesInFlight|TestShardStoreReconfigure|TestShardStoreTCPReconfigure'
race-churn:
	$(GO) test -race -count 1 -run $(CHURN_TESTS) ./internal/fabric ./internal/cluster ./internal/runner ./internal/lanenet ./internal/shardstore

# Erasure-coded suite under the race detector: the GF(2^8) coder and the
# coded construction (concurrent writers/readers, crash tolerance, space
# accounting, live replacement), the torn-stripe adversary on all three
# lane backends (the TCP variant spawns real cmd/lanenode processes), the
# coded chaos net on its pinned seeds (E26), and the end-to-end space axis
# through the sharded store.
CODED_TESTS = 'TestGF|TestCoder|TestCoded|TestFragStore|TestTornStripe|TestChaosCoded|TestCodedSpaceAxis'
race-coded:
	$(GO) test -race -count 1 -run $(CODED_TESTS) ./internal/emulation/coded ./internal/baseobj ./internal/runner ./internal/loadgen

# Live view-resizing suite under the race detector: batched transitions
# (grow, shrink, f change) as single epoch bumps — the fabric coordinator
# and its abort path (a leaver or transfer target crashing inside the
# sealed-but-not-activated window must roll the old view back intact, on
# all three lane backends), grow/shrink under open client load with zero
# failed ops, the coded construction's restripe-or-reject on kData change,
# the resize chaos net on its pinned seeds (E27: sound constructions clean,
# naive caught), the transition-crash matrix (E28), and per-shard resizing
# through the sharded store (in-process and over real cmd/lanenode
# processes).
RESIZE_TESTS = 'TestResize|TestCodedResize|TestTransitionCrash|TestShardStoreResize|TestShardStoreTCPResize'
race-resize:
	$(GO) test -race -count 1 -run $(RESIZE_TESTS) ./internal/fabric ./internal/runner ./internal/emulation/coded ./internal/shardstore
