GO ?= go

.PHONY: all build vet test race bench bench-smoke pairs allocs examples fabric-bench loadgen-smoke lint gofmt no-timers stress loc race-rounds race-lanenet fuzz-smoke race-routes

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet, the gofmt gate and the no-timers gate always,
# staticcheck when installed (the CI image has it; local checkouts without it
# still get a green target). The CPU-feature probe, the erasure coder and the
# payload codec have amd64 assembly and a pure-Go stand-in on every other
# architecture, so all three are vetted for arm64 too: a declaration that
# drifts between the two builds fails here, not only on a machine that builds
# the other one.
lint: vet gofmt no-timers
	GOARCH=arm64 $(GO) vet ./internal/cpufeat ./internal/emulation/coded ./internal/types
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
# every test with "Alloc" in its name (a write+read pair through the
# register's emulation.Writer / Reader handles per construction — abd-max, abd-cas and aac-max at 0 allocations, in
# process and abd-max and abd-cas across the latency lane too, a payload-mode
# abd-max pair at its value bytes —
# through one async engine, and through the sharded store's frontend on
# materialized keys; a materialized key's live heap objects and bytes, for
# each construction, and the allocations materializing one costs; the
# fabric's hand-off of a recycled batch — three ops or one — to an
# asynchronous lane and its release path; the TCP lane's in-place codecs, slot table
# and pipelined client; a coded 64 KiB write+read pair within 1.3x the value
# size per op, and the coder's encode of a 64 KiB stripe at 2 allocations),
# and every test with "Sizeof" in its name (the widths of what a trigger
# copies: the 64-byte invocation and each record that carries it). A round,
# an op record, a hand-off, a codec or a table that starts allocating again,
# or a record that grows, fails here by name.
allocs:
	$(GO) test -count 1 -run 'Alloc|Sizeof' ./...

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

# The round engine, the blocking adapter, the collect/push chain and the
# async engine under the race detector, repeated and at three GOMAXPROCS
# settings: every quorum condition and reducer of the one scatter, the
# recycled round's lifetime (thousands of rounds with one responder delayed
# past the quorum and a swap mid-run: no report twice, none with another
# round's value) and, one layer up, the recycled op, handle and chain records'
# (the same run through one engine: every completion once, with its own op's
# value; an engine closed with ops in flight never recycles them), the
# cancellation contract on all six constructions and both lanes, the reused
# writer handle after an abandoned write (quorum register, regemu, coded),
# view-change retries through a one-for-one swap, abd-cas's Algorithm 1
# loop, whose retries run on lane goroutines under contention, and the other
# two constructions whose low-level ops ride recycled one-op groups: aac-max's
# cell writes and regemu's re-cover triggers. Selected by package — no name
# list to rot.
race-rounds:
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/emulation ./internal/emulation/rounds ./internal/emulation/abdcore ./internal/emulation/async ./internal/emulation/casmax ./internal/emulation/aacmax ./internal/emulation/regemu

# The TCP lane under the race detector, repeated and at three GOMAXPROCS
# settings: frame reader and codecs (golden wire bytes, aliasing, hostile
# peers on both ends), the slot table, the pipelined client and the node,
# reconnect-as-crash and the drain. Selected by package — no name list to
# rot.
race-lanenet:
	$(GO) test -race -count 20 -cpu 1,2,8 ./internal/lanenet

# Ten seconds of coverage-guided fuzzing over the frame reader and every
# wire decoder, then ten over the erasure coder: decode(encode(data)) must be
# data for any payload and any recovery subset. Then ten over each pair of
# kernels, where the machine has AVX-512 with GFNI (the log line of
# TestKernelChoice says whether it does, and so which kernels ran): the GF(2^8)
# multiply-accumulate (VGF2P8AFFINEQB) must match the Go kernel byte for byte
# at any length, coefficients and offsets, and the payload check (VPMULLQ)
# must name the same first bad byte as the Go loop on any corrupted payload.
fuzz-smoke:
	$(GO) test -count 1 -v -run TestKernelChoice ./internal/cpufeat
	$(GO) test -run xxx -fuzz FuzzFrameDecode -fuzztime 10s ./internal/lanenet
	$(GO) test -run xxx -fuzz FuzzDecodeEncode -fuzztime 10s ./internal/emulation/coded
	$(GO) test -run xxx -fuzz FuzzMulRowsAdd -fuzztime 10s ./internal/emulation/coded
	$(GO) test -run xxx -fuzz FuzzPayloadMismatch -fuzztime 10s ./internal/types

# Object-table suite under the race detector, repeated and at three
# GOMAXPROCS settings: chunk-edge round-trips, tombstones and the used latch
# across a move in the cluster's table, the linear placement bound, the
# arena (blocks growing from small; a moved, rolled-back or removed arena
# copy retired — ErrSealed, no payload pinned), PerServerBytes racing
# joins, the fabric's zero-allocation first-touch and post-transition
# sweeps, and lookups racing two rolling one-for-one swaps (one slot store
# per moved object).
# Selected by package and the TestObjectTable name prefix, so new table
# tests join without a list edit.
race-routes:
	$(GO) test -race -count 20 -cpu 1,2,8 -run 'TestObjectTable' ./internal/cluster ./internal/fabric

# The reconfiguration suites stress repeats, selected by package or by the
# topic word a test carries in its name (an unanchored -run pattern), so a
# new test joins its suite by being named for what it tests — there is no
# name list to edit.
#
# CHURN_SUITE: every fabric, runner and shardstore test named for a
# reconfiguration topic — Replace (the one-for-one swap, a Resize that keeps
# n and f: freeze/drain/transfer/activate, parked-op outcomes, refusals,
# rolling replacement under load), Reconfigure (every server of every
# construction mid-flight; whole shards — a Resize{Grow: 1, Shrink: 1} per
# member — in-process and over real cmd/lanenode processes), Churn (the
# resize chaos nets on their pinned seeds, E27, whose swaps transfer and
# whose grows and shrinks reshape, and the coded one), Drain, Departing,
# ViewRetry. The stateful place frames and the node drain on the TCP lane
# run under race-lanenet.
CHURN_SUITE = -run 'Replace|Reconfigure|Churn|Drain|Departing|ViewRetry' ./internal/fabric ./internal/runner ./internal/shardstore

# RESIZE_SUITE: every test with "Resize" in its name, plus the
# transition-crash family — batched transitions (grow, shrink, f change,
# swap) as single epoch bumps, the delta picking the protocol (a swap
# transfers without calling the reshape, a grow reshapes with every member
# frozen, a shrink with nothing to re-place aborts on a non-empty leaver),
# the fabric coordinator and its abort path (a leaver or transfer target
# crashing inside the sealed-but-not-activated window must roll the old view
# back intact, on all three lane backends), grow/shrink under open client
# load with zero failed ops, the quorum family's store recipe through a grow
# and a shrink (and a swap before the grow, which keeps the moved store),
# the coded construction's restripe, Algorithm 2's re-planned layout (Table
# 1's register row through 3 → 5 → 7 → 3 servers, a write caught by the
# window re-pushing its own timestamp), the resize chaos net on its pinned
# seeds (E27: sound constructions clean, naive caught, both protocols
# committed), the transition-crash matrix (E28), and per-shard resizing
# through the sharded store (in-process and over real cmd/lanenode
# processes).
RESIZE_SUITE = -run 'Resize|TestTransitionCrash' ./internal/fabric ./internal/runner ./internal/emulation/abdcore ./internal/emulation/coded ./internal/emulation/regemu ./internal/shardstore

# Membership accounting (all of internal/cluster), the adversary package —
# the chaos gate's one fault budget, whose Hold/Released and Crash race in
# TestChaosBudgetRace — and the two reconfiguration suites above, 50 times
# over at three GOMAXPROCS settings under the race detector. Long; it catches
# the schedules one run never meets, and CI's stress job gates on it. (150
# passes of a package outlast go test's default 10-minute timeout.)
STRESS = $(GO) test -race -count 50 -cpu 1,2,8 -timeout 3h
stress:
	$(STRESS) ./internal/cluster
	$(STRESS) ./internal/adversary
	$(STRESS) $(CHURN_SUITE)
	$(STRESS) $(RESIZE_SUITE)
