GO ?= go

.PHONY: all build vet test race bench bench-smoke pairs allocs examples fabric-bench loadgen-smoke lint gofmt no-timers stress loc race-sweep race-rounds race-lanenet fuzz-smoke race-lanes race-routes race-shards race-churn race-coded race-resize

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet, the gofmt gate and the no-timers gate always,
# staticcheck when installed (the CI image has it; local checkouts without it
# still get a green target).
lint: vet gofmt no-timers
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only"; \
	fi

# Every Go file is gofmt-formatted: gofmt -l lists none.
gofmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "$$unformatted"; echo "gofmt: run gofmt -w on the files above"; exit 1; \
	fi

# No outcome may depend on a wall-clock budget or a poll interval: non-test
# code of the layers below waits on events (the view stamp, a lane's idle
# signal, a server's crash channel, a gate's held count), never on the clock.
# The one exception is latency.go, the latency lane's model clock — injected
# delay is what that lane is.
no-timers:
	@hits=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'time\.(Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)\(' \
		internal/fabric internal/cluster internal/emulation internal/lanenet internal/runner internal/shardstore \
		| grep -v '^internal/fabric/latency\.go:'); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; echo "no-timers: wall-clock waits in event-driven layers (wait on a signal or the caller's context)"; exit 1; \
	fi

# The size ledger ROADMAP item 11 is judged by: total and non-blank,
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

# Interleaved parent/change pairs of one bench/ workload — the form every
# performance claim is judged in: make pairs PARENT=/path/to/parent-checkout
# W=tcp-closed [N=10]. Prints every run, medians, quartiles, wins and ties.
pairs:
	scripts/pairs.sh $(PARENT) $(W) $(N)

# Allocation ceilings, as plain tests — NOT under -race, where sync.Pool
# drops items on purpose and every pooled path would read as a regression:
# every test with "Alloc" in its name (an abd-max write+read pair at 0
# allocations through the handles — in process and across the latency lane —
# through one async engine, and through the sharded store's frontend on
# materialized keys; a materialized key's live heap objects and bytes, for
# each construction, and the allocations materializing one costs; the
# fabric's hand-off of a recycled batch to an asynchronous lane, its release
# path and its single-op trigger; the TCP lane's in-place codecs, slot table
# and pipelined client; a coded 64 KiB write+read pair within 1.3x the value
# size per op). A round, an op record, a hand-off, a codec or a table that
# starts allocating again fails here by name.
allocs:
	$(GO) test -count 1 -run 'Alloc' ./...

# Every example end to end, as in CI's "Examples smoke" step: each one exits
# non-zero on an unexpected outcome. The directories are globbed, so a new
# example joins without a list edit.
examples:
	@for ex in examples/*/; do echo "== $$ex"; $(GO) run ./$$ex || exit 1; done

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

# The round engine, the blocking adapter, the collect/push chain and the
# async engine under the race detector, repeated and at three GOMAXPROCS
# settings: every quorum condition and reducer of the one scatter, the
# recycled round's lifetime (thousands of rounds with one responder delayed
# past the quorum and a Replace mid-run: no report twice, none with another
# round's value) and, one layer up, the recycled op, handle and chain records'
# (the same run through one engine: every completion once, with its own op's
# value; an engine closed with ops in flight never recycles them), the
# cancellation contract on all six constructions and both lanes, the reused
# writer handle after an abandoned write (quorum register, regemu, coded),
# and view-change retries through a Replace. Selected by package — no name list to rot.
race-rounds:
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/emulation ./internal/emulation/rounds ./internal/emulation/abdcore ./internal/emulation/async

# The TCP lane under the race detector, repeated and at three GOMAXPROCS
# settings: frame reader and codecs (golden wire bytes, aliasing, hostile
# peers on both ends), the slot table, the pipelined client and the node,
# reconnect-as-crash and the drain. Selected by package — no name list to
# rot.
race-lanenet:
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/lanenet

# Ten seconds of coverage-guided fuzzing over the frame reader and every
# wire decoder, then ten over the erasure coder: decode(encode(data)) must be
# data for any payload and any recovery subset.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzFrameDecode -fuzztime 10s ./internal/lanenet
	$(GO) test -run xxx -fuzz FuzzDecodeEncode -fuzztime 10s ./internal/emulation/coded

# The five suites below select by package, or by the topic word a test
# carries in its name (an unanchored -run pattern), so a new test joins its
# suite by being named for what it tests — there is no name list to edit.

# Lane-backend suite under the race detector: every fabric and runner test
# with "Lane" in its name — latency lanes (the event loop, a delivery that
# never blocks while the loop is parked, completions on the loop, crash
# windows), the custom-backend seam, view changes under latency-lane load,
# the chaos suites over the latency and TCP lanes (the TCP chaos suite spawns
# real cmd/lanenode processes) — plus the snapshot-scan family. The TCP
# lane's own package runs under race-lanenet.
LANE_SUITE = -run 'Lane|TestScanSnapshot' ./internal/fabric ./internal/runner
race-lanes:
	$(GO) test -race -count 1 $(LANE_SUITE)

# Object-table suite under the race detector, repeated and at three
# GOMAXPROCS settings: chunk-edge round-trips, tombstones and the used latch
# across a move in the cluster's table, the linear placement bound, the
# arena (blocks growing from small; a moved, rolled-back or removed arena
# copy retired — ErrSealed, no payload pinned), PerServerBytes racing
# joins, the fabric's zero-allocation first-touch and post-transition
# sweeps, and lookups racing two rolling Replaces (one slot store per moved
# object).
# Selected by package and the TestObjectTable name prefix, so new table
# tests join without a list edit.
race-routes:
	$(GO) test -race -count 20 -cpu 1,2,8 -run 'TestObjectTable' ./internal/cluster ./internal/fabric

# Sharded-store suite under the race detector, selected by package: all of
# internal/shardstore (deterministic shard routing, the multi-engine
# frontend, crash-per-shard end-to-end runs, reconfiguration and resizing,
# and the TCP-lane smokes over real cmd/lanenode processes, one of which
# kills a node mid-run) and all of internal/loadgen (sharded, open-loop and
# rate-sweep paths, the coded space axis). The multi-table lanenet node runs
# under race-lanenet.
race-shards:
	$(GO) test -race -count 1 ./internal/shardstore ./internal/loadgen

# Reconfiguration suite under the race detector: membership accounting (all
# of internal/cluster), and every fabric, runner and shardstore test named
# for a reconfiguration topic — Replace (freeze/drain/transfer/activate,
# parked-op outcomes, refusals, rolling replacement under load), Reconfigure
# (every server of every construction mid-flight; whole shards, in-process
# and over real cmd/lanenode processes), Churn (the chaos net on its pinned
# seeds, E24), Drain, Departing, ViewRetry. The stateful place frames and the
# node drain on the TCP lane run under race-lanenet.
CHURN_SUITE = -run 'Replace|Reconfigure|Churn|Drain|Departing|ViewRetry' ./internal/fabric ./internal/runner ./internal/shardstore
race-churn:
	$(GO) test -race -count 1 ./internal/cluster
	$(GO) test -race -count 1 $(CHURN_SUITE)

# Erasure-coded suite under the race detector: all of the coded construction
# (the GF(2^8) coder, concurrent writers/readers, crash tolerance, space
# accounting, live replacement and restripe) and of internal/baseobj (the
# fragment store), then the runner and loadgen tests named for it — the
# torn-stripe adversary on all three lane backends (the TCP variant spawns
# real cmd/lanenode processes), the coded chaos net on its pinned seeds
# (E26), and the end-to-end space axis through the sharded store.
race-coded:
	$(GO) test -race -count 1 ./internal/emulation/coded ./internal/baseobj
	$(GO) test -race -count 1 -run 'Coded|TestTornStripe' ./internal/runner ./internal/loadgen

# Live view-resizing suite under the race detector: every test with
# "Resize" in its name, plus the transition-crash family — batched
# transitions (grow, shrink, f change) as single epoch bumps, the fabric
# coordinator and its abort path (a leaver or transfer target crashing inside
# the sealed-but-not-activated window must roll the old view back intact, on
# all three lane backends), grow/shrink under open client load with zero
# failed ops, the quorum family's store recipe through a grow and a shrink,
# the coded construction's restripe, Algorithm 2's re-planned layout (Table
# 1's register row through 3 → 5 → 7 → 3 servers, a write caught by the
# window re-pushing its own timestamp), the resize chaos net on its pinned
# seeds (E27: sound constructions clean, naive caught), the transition-crash
# matrix (E28), and per-shard resizing through the sharded store (in-process
# and over real cmd/lanenode processes).
RESIZE_SUITE = -run 'Resize|TestTransitionCrash' ./internal/fabric ./internal/runner ./internal/emulation/abdcore ./internal/emulation/coded ./internal/emulation/regemu ./internal/shardstore
race-resize:
	$(GO) test -race -count 1 $(RESIZE_SUITE)

# The two reconfiguration suites above, 50 times over at three GOMAXPROCS
# settings. Long; it catches the schedules one run never meets, and CI's
# stress job gates on it. (150 passes of a package outlast go test's default
# 10-minute timeout.)
STRESS = $(GO) test -race -count 50 -cpu 1,2,8 -timeout 3h
stress:
	$(STRESS) ./internal/cluster
	$(STRESS) $(CHURN_SUITE)
	$(STRESS) $(RESIZE_SUITE)
