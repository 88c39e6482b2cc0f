// Package loadgen is the end-to-end workload driver: it measures what the
// emulated registers deliver to *clients* — high-level operations per
// second and completion latency — rather than the fabric's raw
// trigger throughput.
//
// A run opens a sharded multi-register store (internal/shardstore): the
// key-space is partitioned across S independent fabrics, each with its own
// lane group (in-process, latency, or a TCP lanenode set), and driven by M
// shared async engine loops (internal/emulation/async; no goroutine per
// op). Configurable populations of writer and reader clients spread over
// the materialized keys, and every operation's latency lands in a
// log-linear histogram (internal/stats) — one per (shard, engine) pair, so
// recording stays single-writer and lock-free, merged per shard and
// overall at the end (stats.Histogram.Merge). Two workload shapes are
// supported:
//
//   - closed loop: every client keeps exactly one operation in flight and
//     issues its next from the previous one's completion callback; total
//     in-flight concurrency equals the client population. Latency is
//     service time by construction — a closed loop cannot suffer
//     coordinated omission because it never has a backlog of intended
//     sends.
//   - open loop: a pacer schedules arrivals at a fixed aggregate rate onto
//     round-robin clients regardless of completions; per-client
//     serialization queues excess arrivals.
//
// # Coordinated-omission correction
//
// The open loop timestamps every operation at its *intended* send time —
// arrival n of a rate-R run is charged from base + n/R — not at the moment
// the pacer got around to issuing it. When the system (or the pacer's own
// scheduling) falls behind, the backlog's wait is therefore part of every
// delayed operation's recorded latency instead of being silently absorbed,
// the classic coordinated-omission error that makes saturated systems look
// healthy. Past the knee the reported percentiles grow without bound, as
// they should: that is what an open-loop client experiences. RateSweep
// runs the same configuration across offered rates to trace the
// latency-vs-rate curve, and Knee picks the last point the store actually
// sustained.
//
// Runs are correctness-gated, not just speedometers: each materialized
// key records its history, every run checks read validity, and atomic
// (read write-back) builds additionally check linearizability on sound
// samples of each key's history (spec.SampleLinearizable). Pure-throughput
// runs can opt out of recording (NoHistory) when billions of ops would not
// fit memory.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/emulation/async"
	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/seed"
	"repro/internal/shardstore"
	"repro/internal/stats"
	"repro/internal/types"
)

// Mode selects the workload shape.
type Mode string

// The two workload shapes.
const (
	// ModeClosed keeps one op in flight per client.
	ModeClosed Mode = "closed"
	// ModeOpen issues at a fixed aggregate rate.
	ModeOpen Mode = "open"
)

// Config parameterizes a load run.
type Config struct {
	// Kind is the construction; K defaults to the writer population per
	// key, F to 1, N to the construction's default server count per shard.
	Kind runner.Kind
	F, N int
	// Atomic builds the read write-back variant (abd-max/abd-cas only),
	// which is what enables the linearizability gate.
	Atomic bool

	// Clients is the total logical client population; ReadFraction of it
	// become readers, the rest writers (at least one writer per key).
	// Registers is how many keys the population spreads over, picked
	// evenly across the shards from a KeySpace-sized key-space
	// (default 2^20, floored at Registers).
	Clients      int
	ReadFraction float64
	Registers    int
	KeySpace     uint64

	// Shards partitions the key-space over that many independent fabrics
	// (default 1); Engines is the async engine-loop pool they share
	// (default = Shards).
	Shards  int
	Engines int

	// Mode and Rate shape the workload; Rate (ops/sec, aggregate) is
	// only used by ModeOpen.
	Mode Mode
	Rate float64

	// Duration bounds the measured run; MaxOps (0 = unlimited)
	// additionally stops after that many completed operations —
	// keeping recorded histories bounded.
	Duration time.Duration
	MaxOps   int64

	// Lane selects the dispatch backend (runner.LaneInProc default,
	// runner.LaneLatency with Profile, or runner.LaneTCP over NodeAddrs);
	// Seed drives the lane delays and the open-loop mix.
	Lane        runner.Lane
	Profile     *fabric.LatencyProfile
	NodeAddrs   []string
	DialTimeout time.Duration
	Seed        int64

	// ValueSize, when positive, makes writes carry payloads of that many
	// bytes (replicated or striped per Kind) so the result reports a
	// bytes-per-server space axis alongside throughput.
	ValueSize int

	// NoHistory disables history recording (and therefore all checks):
	// the pure-throughput mode.
	NoHistory bool
	// SampleChecks is how many independent linearizability samples to
	// check per key on atomic builds (default 4).
	SampleChecks int
}

// Latency summarizes one histogram in nanoseconds.
type Latency struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean_ns"`
	P50  int64   `json:"p50_ns"`
	P90  int64   `json:"p90_ns"`
	P99  int64   `json:"p99_ns"`
	Max  int64   `json:"max_ns"`
}

func summarize(h *stats.Histogram) Latency {
	return Latency{
		N:    h.Count(),
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
		Max:  h.Max(),
	}
}

// ShardStat is one shard's share of a run.
type ShardStat struct {
	Shard   int     `json:"shard"`
	Keys    int     `json:"keys"`
	Ops     int64   `json:"ops"`
	Failed  int64   `json:"failed"`
	Latency Latency `json:"latency"`
}

// Result is one run's report, shaped for JSON snapshots.
type Result struct {
	Kind      string  `json:"kind"`
	Lane      string  `json:"lane"`
	Mode      string  `json:"mode"`
	Atomic    bool    `json:"atomic"`
	K         int     `json:"k"`
	F         int     `json:"f"`
	N         int     `json:"n"`
	Clients   int     `json:"clients"`
	Writers   int     `json:"writers"`
	Readers   int     `json:"readers"`
	Registers int     `json:"registers"`
	Shards    int     `json:"shards"`
	Engines   int     `json:"engines"`
	Procs     int     `json:"procs"`
	Rate      float64 `json:"rate,omitempty"`
	ValueSize int     `json:"value_size,omitempty"`

	DurationSec float64 `json:"duration_sec"`
	Ops         int64   `json:"ops"`
	Failed      int64   `json:"failed"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// MaxInFlight sums the engine loops' peak concurrency.
	MaxInFlight int64 `json:"max_in_flight"`

	Latency      Latency `json:"latency"`
	WriteLatency Latency `json:"write_latency"`
	ReadLatency  Latency `json:"read_latency"`
	// PerShard breaks the run down by shard; the top-level histograms are
	// the per-shard ones merged.
	PerShard []ShardStat `json:"per_shard,omitempty"`

	// Checked reports whether consistency was verified; HistoryOps is the
	// total recorded high-level ops, SampledOps how many the
	// linearizability samples covered, and Violations any checker
	// failures (empty on a healthy run).
	// BytesPerServer is each server slot's storage footprint summed
	// across shards (zero-valued on the TCP lane, where bytes live in the
	// node processes); TotalBytes is their sum.
	BytesPerServer []int64 `json:"bytes_per_server,omitempty"`
	TotalBytes     int64   `json:"total_bytes,omitempty"`

	Checked    bool     `json:"checked"`
	HistoryOps int      `json:"history_ops"`
	SampledOps int      `json:"sampled_ops"`
	Violations []string `json:"violations,omitempty"`
}

// meter is one (shard, engine) pair's latency and outcome record. All of a
// key's completions fire on its engine loop, so each meter has exactly one
// writing goroutine: no locks, no atomics on the hot path.
type meter struct {
	all      *stats.Histogram
	writeLat *stats.Histogram
	readLat  *stats.Histogram
	done     int64
	failed   int64
}

func newMeter() *meter {
	return &meter{all: stats.NewHistogram(), writeLat: stats.NewHistogram(), readLat: stats.NewHistogram()}
}

// worker is one logical client bound to its key, engine client, and meter.
type worker struct {
	key uint64
	c   *async.Client
	m   *meter
	val *atomic.Int64 // per-key write-value counter (shared by the key's writers)
}

// Run executes one load run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: need at least one client, got %d", cfg.Clients)
	}
	if cfg.Registers <= 0 {
		cfg.Registers = 1
	}
	if cfg.Registers > cfg.Clients {
		return nil, fmt.Errorf("loadgen: %d registers need at least as many clients, got %d", cfg.Registers, cfg.Clients)
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return nil, fmt.Errorf("loadgen: read fraction %v outside [0,1]", cfg.ReadFraction)
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeClosed
	}
	if cfg.Mode != ModeClosed && cfg.Mode != ModeOpen {
		return nil, fmt.Errorf("loadgen: unknown mode %q", cfg.Mode)
	}
	if cfg.Mode == ModeOpen && cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: open loop needs a positive rate")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.F <= 0 {
		cfg.F = 1
	}
	if cfg.N <= 0 {
		cfg.N = shardstore.DefaultServers(cfg.Kind, cfg.F)
	}
	if cfg.SampleChecks <= 0 {
		cfg.SampleChecks = 4
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Engines <= 0 {
		cfg.Engines = cfg.Shards
	}
	if cfg.KeySpace == 0 {
		cfg.KeySpace = 1 << 20
	}
	if cfg.KeySpace < uint64(cfg.Registers) {
		cfg.KeySpace = uint64(cfg.Registers)
	}
	if cfg.Lane == "" {
		cfg.Lane = runner.LaneInProc
	}

	readers := int(float64(cfg.Clients)*cfg.ReadFraction + 0.5)
	writers := cfg.Clients - readers
	if writers < cfg.Registers {
		// Every key needs a writer population (K >= 1).
		writers = cfg.Registers
		readers = cfg.Clients - writers
		if readers < 0 {
			readers = 0
		}
	}
	// Per-key populations: key i of the Registers picked keys gets wPer
	// (+1 for the first writers%Registers keys) writers, same for readers.
	maxWPerKey := writers / cfg.Registers
	if writers%cfg.Registers > 0 {
		maxWPerKey++
	}

	st, err := shardstore.Open(ctx, shardstore.Config{
		Shards: cfg.Shards, Engines: cfg.Engines, Keys: cfg.KeySpace,
		Kind: cfg.Kind, WritersPerKey: maxWPerKey, F: cfg.F, N: cfg.N,
		Atomic: cfg.Atomic, ValueSize: cfg.ValueSize,
		Lane: cfg.Lane, Profile: cfg.Profile,
		NodeAddrs: cfg.NodeAddrs, DialTimeout: cfg.DialTimeout,
		Seed: cfg.Seed, NoHistory: cfg.NoHistory,
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// Materialize the keys and their clients up front so construction cost
	// stays out of the measured window. Meters are per (shard, engine):
	// single-writer by key-affinity.
	meters := make([][]*meter, cfg.Shards)
	for s := range meters {
		meters[s] = make([]*meter, cfg.Engines)
		for e := range meters[s] {
			meters[s][e] = newMeter()
		}
	}
	keys := st.BalancedKeys(cfg.Registers)
	var writerPool, readerPool []worker
	totalK := 0
	for ki, key := range keys {
		m := meters[st.ShardOf(key)][st.EngineOf(key)]
		val := new(atomic.Int64)
		wHere := writers / cfg.Registers
		if ki < writers%cfg.Registers {
			wHere++
		}
		rHere := readers / cfg.Registers
		if ki < readers%cfg.Registers {
			rHere++
		}
		totalK += wHere
		for slot := 0; slot < wHere; slot++ {
			c, err := st.Writer(key, slot)
			if err != nil {
				return nil, err
			}
			writerPool = append(writerPool, worker{key: key, c: c, m: m, val: val})
		}
		for slot := 0; slot < rHere; slot++ {
			c, err := st.Reader(key, slot)
			if err != nil {
				return nil, err
			}
			readerPool = append(readerPool, worker{key: key, c: c, m: m})
		}
	}

	// The measurement window: completions are counted while counting is
	// set; the first MaxOps-crossing completion (or the duration timer)
	// clears it, and the drained tail is not measured. The window opens
	// only after every client's first op is enqueued (below) — on a fast
	// lane the engine loops can complete thousands of ops while this
	// goroutine is still starting workers (single-CPU scheduling), and a
	// small MaxOps would otherwise be spent before late shards' workers
	// exist. Stop halts issuance; counting alone gates recording.
	var counting atomic.Bool
	var totalDone atomic.Int64
	stopped := make(chan struct{})
	var stopOnce atomic.Bool
	stop := func() {
		if stopOnce.CompareAndSwap(false, true) {
			counting.Store(false)
			close(stopped)
		}
	}

	record := func(m *meter, write bool, start time.Time, err error) {
		if !counting.Load() {
			return
		}
		if err != nil {
			m.failed++
			return
		}
		lat := time.Since(start).Nanoseconds()
		m.all.Record(lat)
		if write {
			m.writeLat.Record(lat)
		} else {
			m.readLat.Record(lat)
		}
		m.done++
		if cfg.MaxOps > 0 && totalDone.Add(1) >= cfg.MaxOps {
			stop()
		}
	}

	if cfg.Mode == ModeClosed {
		// Completions arriving before the window opens recurse (keeping
		// the one-op-in-flight invariant) but are not recorded.
		for _, w := range writerPool {
			w := w
			var issue func()
			issue = func() {
				if stopOnce.Load() {
					return
				}
				start := time.Now()
				w.c.StartWrite(types.Value(w.val.Add(1)), func(err error) {
					record(w.m, true, start, err)
					issue()
				})
			}
			issue()
		}
		for _, w := range readerPool {
			w := w
			var issue func()
			issue = func() {
				if stopOnce.Load() {
					return
				}
				start := time.Now()
				w.c.StartRead(func(_ types.Value, err error) {
					record(w.m, false, start, err)
					issue()
				})
			}
			issue()
		}
	}
	counting.Store(true)
	started := time.Now()
	if cfg.Mode == ModeOpen {
		go pace(ctx, cfg, writerPool, readerPool, stopped, &counting, record)
	}

	select {
	case <-time.After(cfg.Duration):
	case <-stopped:
	case <-ctx.Done():
	}
	stop()
	elapsed := time.Since(started)

	// Drain the in-flight tail so histories are complete before checking.
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := st.Drain(drainCtx); err != nil {
		return nil, fmt.Errorf("loadgen: draining engines: %w", err)
	}

	res := &Result{
		Kind:        string(cfg.Kind),
		Lane:        string(cfg.Lane),
		Mode:        string(cfg.Mode),
		Atomic:      cfg.Atomic,
		K:           totalK,
		F:           cfg.F,
		N:           cfg.N,
		Clients:     cfg.Clients,
		Writers:     writers,
		Readers:     readers,
		Registers:   len(keys),
		Shards:      cfg.Shards,
		Engines:     cfg.Engines,
		Procs:       runtime.GOMAXPROCS(0),
		Rate:        cfg.Rate,
		ValueSize:   cfg.ValueSize,
		DurationSec: elapsed.Seconds(),
	}
	res.BytesPerServer = st.PerServerBytes()
	res.TotalBytes = st.TotalBytes()
	perShardKeys := st.MaterializedKeys()
	all, wh, rh := stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram()
	for s := 0; s < cfg.Shards; s++ {
		shardAll := stats.NewHistogram()
		var stat ShardStat
		stat.Shard = s
		stat.Keys = perShardKeys[s]
		for _, m := range meters[s] {
			shardAll.Merge(m.all)
			wh.Merge(m.writeLat)
			rh.Merge(m.readLat)
			stat.Ops += m.done
			stat.Failed += m.failed
		}
		stat.Latency = summarize(shardAll)
		all.Merge(shardAll)
		res.PerShard = append(res.PerShard, stat)
		res.Ops += stat.Ops
		res.Failed += stat.Failed
	}
	for _, es := range st.EngineStats() {
		res.MaxInFlight += es.MaxInFlight
	}
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	res.Latency = summarize(all)
	res.WriteLatency = summarize(wh)
	res.ReadLatency = summarize(rh)

	if !cfg.NoHistory {
		res.Checked = true
		rep := st.CheckAll(cfg.SampleChecks, cfg.Seed)
		res.HistoryOps = rep.HistoryOps
		res.SampledOps = rep.SampledOps
		res.Violations = rep.Violations
	}
	return res, nil
}

// pace is the open-loop arrival process: arrival n is *scheduled* at
// base + n/Rate, and that intended time — not the moment the pacer loop
// reached it — is the timestamp its latency is measured from
// (coordinated-omission correction; see the package comment). Arrivals go
// onto round-robin clients with the read/write mix drawn per arrival,
// queueing behind busy clients rather than skipping them.
func pace(ctx context.Context, cfg Config, writers, readers []worker, stopped <-chan struct{}, counting *atomic.Bool, record func(*meter, bool, time.Time, error)) {
	rng := rand.New(rand.NewSource(seed.Sub(cfg.Seed, 99)))
	interval := float64(time.Second) / cfg.Rate
	base := time.Now()
	var issued int64
	var wIdx, rIdx int
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stopped:
			return
		case <-t.C:
		}
		// Everything scheduled up to now is due; a late wakeup issues the
		// whole backlog, each op stamped with its own intended time.
		due := int64(float64(time.Since(base)) / interval)
		for ; issued < due; issued++ {
			if !counting.Load() {
				return
			}
			intended := base.Add(time.Duration(float64(issued) * interval))
			read := len(readers) > 0 && (len(writers) == 0 || rng.Float64() < cfg.ReadFraction)
			if read {
				w := readers[rIdx%len(readers)]
				rIdx++
				w.c.StartRead(func(_ types.Value, err error) { record(w.m, false, intended, err) })
			} else {
				w := writers[wIdx%len(writers)]
				wIdx++
				w.c.StartWrite(types.Value(w.val.Add(1)), func(err error) { record(w.m, true, intended, err) })
			}
		}
	}
}

// RateSweep runs the same open-loop configuration at each offered rate in
// turn — a fresh store per point, so queue state never leaks between rates
// — and returns one Result per rate: the latency-vs-offered-rate curve.
func RateSweep(ctx context.Context, cfg Config, rates []float64) ([]*Result, error) {
	cfg.Mode = ModeOpen
	out := make([]*Result, 0, len(rates))
	for _, r := range rates {
		cfg.Rate = r
		res, err := Run(ctx, cfg)
		if err != nil {
			return out, fmt.Errorf("loadgen: sweep at rate %.0f: %w", r, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Knee returns the index of the last sweep point whose achieved throughput
// is at least 95% of its offered rate — the highest rate the store
// sustained before saturating; -1 when even the lowest offered rate was
// not sustained. Past this point the CO-corrected percentiles grow with
// the backlog rather than the service time.
func Knee(results []*Result) int {
	knee := -1
	for i, r := range results {
		if r.Rate > 0 && r.OpsPerSec >= 0.95*r.Rate {
			knee = i
		}
	}
	return knee
}
