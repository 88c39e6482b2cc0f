package main

import (
	"fmt"

	"repro/internal/runner"
)

// workload is one set of inputs the benchmark runs: a deployment shape plus
// a traffic shape. Names and reasons are duplicated in BENCHMARK.json;
// TestBenchmarkJSONMatchesHarness keeps the two in step.
type workload struct {
	Name string
	Why  string

	// Deployment. F is 1 everywhere; N is servers per shard.
	Kind      runner.Kind
	Atomic    bool
	Lane      runner.Lane
	N         int
	Shards    int
	Engines   int
	Nodes     int // cmd/lanenode processes (TCP lane only)
	ValueSize int

	// Key-space: Keys registers, each with WriterSlots writer clients (the
	// register's k) and ReaderSlots reader clients.
	Keys        int
	WriterSlots int
	ReaderSlots int

	// Traffic. Open loops offer Rate ops/s on round-robin clients; closed
	// loops keep Sessions ops in flight. With FloatingSessions every op
	// picks a uniform client (working set ≫ sessions); otherwise session i
	// owns client i and Sessions must equal the client count.
	Open             bool
	Rate             float64
	Sessions         int
	FloatingSessions bool
	ReadFrac         float64

	// CrashAt, when positive, crashes server 0 of every shard at that
	// fraction of each timed window; latency metrics then cover only ops due
	// at or after the crash.
	CrashAt float64
}

func (w *workload) clients() int { return w.Keys * (w.WriterSlots + w.ReaderSlots) }

// The rates are ≈30–40 % of each deployment's closed-loop capacity on the
// 2-core reference box (go1.24): high enough that queueing shows in the
// tail, low enough that goodput sits at the offered rate.
var workloads = []*workload{
	{
		Name: "inproc-closed",
		Why:  "8,192 keys >> 256 closed-loop sessions on the in-process lane: the CPU path shardstore-async-abdcore-rounds-fabric-cluster-baseobj does all the work; key count, route tables and GC scanning show here",
		Kind: runner.KindABDMax, Atomic: true, Lane: runner.LaneInProc, N: 3, Shards: 2, Engines: 2,
		Keys: 8192, WriterSlots: 1, ReaderSlots: 1,
		Sessions: 256, FloatingSessions: true, ReadFrac: 0.5,
	},
	{
		Name: "regemu-latency-open",
		Why:  "the paper's Algorithm 2 (k=4, n=7) on the latency lane, 20,000 ops/s over 16 hot keys: scan collects, cover-set writers, lane event loops; injected delay dominates, so latency and CPU/op are what move",
		Kind: runner.KindRegEmu, Lane: runner.LaneLatency, N: 7, Shards: 2, Engines: 2,
		Keys: 16, WriterSlots: 4, ReaderSlots: 4,
		Open: true, Rate: 20000, ReadFrac: 0.5,
	},
	{
		Name: "cas-latency-crash",
		Why:  "abd-cas, 2 contending writers/key, 15,000 ops/s; server 0 of every shard crashes a third into each window, so quorums wait for the slowest survivor; latency covers post-crash ops, failures must stay 0",
		Kind: runner.KindCASMax, Atomic: true, Lane: runner.LaneLatency, N: 3, Shards: 2, Engines: 2,
		Keys: 32, WriterSlots: 2, ReaderSlots: 2,
		Open: true, Rate: 15000, ReadFrac: 0.5,
		CrashAt: 1.0 / 3,
	},
	{
		Name: "tcp-closed",
		Why:  "abd-max over 3 real cmd/lanenode processes on loopback, 128 closed-loop sessions: deep pipelines, so lanenet framing, flush coalescing and syscalls set capacity",
		Kind: runner.KindABDMax, Atomic: true, Lane: runner.LaneTCP, N: 3, Shards: 1, Engines: 1, Nodes: 3,
		Keys: 32, WriterSlots: 2, ReaderSlots: 2,
		Sessions: 128, ReadFrac: 0.5,
	},
	{
		Name: "tcp-open",
		Why:  "the tcp-closed deployment at 15,000 ops/s open loop: shallow pipelines, so a longer flush window that helps tcp-closed shows here as added latency",
		Kind: runner.KindABDMax, Atomic: true, Lane: runner.LaneTCP, N: 3, Shards: 1, Engines: 1, Nodes: 3,
		Keys: 32, WriterSlots: 2, ReaderSlots: 2,
		Open: true, Rate: 15000, ReadFrac: 0.5,
	},
	{
		Name: "coded-64k-open",
		Why:  "erasure-coded n=5 (3 data shards) with 64 KiB values at 3,000 ops/s: Reed-Solomon encode/decode and fragment copies dominate; writes and reads reported apart; carries the bytes-per-server space axis",
		Kind: runner.KindCoded, Lane: runner.LaneInProc, N: 5, Shards: 2, Engines: 2, ValueSize: 64 << 10,
		Keys: 16, WriterSlots: 1, ReaderSlots: 1,
		Open: true, Rate: 3000, ReadFrac: 0.5,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
