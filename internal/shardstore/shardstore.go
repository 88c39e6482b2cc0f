// Package shardstore is the horizontal-composition layer: it partitions a
// large register key-space across S independent fabrics (shards) behind a
// single routing frontend, and drives them through a pool of M shared
// async engine loops.
//
// The paper's space and latency bounds are per-register; serving a large
// key-space means amortizing those per-register costs across many
// registers without funnelling every operation through one fabric and one
// engine goroutine. Each shard is a complete vertical slice — its own
// cluster (server set), fabric, and lane group (in-process, latency, or a
// TCP lanenode set) — so shards share no locks, no token counters, and no
// fault domains: crashing a server affects exactly one shard's quorums.
// The shard router is the key-space analogue of the fabric's per-object
// ServerFor routing: a pure, deterministic function of the key, stable
// across restarts, so any frontend instance routes identically
// (freestore's client frontend over server groups is the exemplar).
//
// # Key-affinity engine routing
//
// Engines are deliberately decoupled from shards: M detached async engine
// loops (async.NewDetached) are shared by all S shards, and every key is
// pinned to one engine by a second independent hash. All clients of a key
// live on that key's engine, so per-client operation serialization — the
// paper's well-formed histories — is enforced by the engine's per-client
// queueing no matter how many goroutines call into the store. M scales
// with cores, S with fault domains; the two are tuned independently.
//
// # Registers, lazily
//
// A key's emulated register (construction, base objects on the shard's
// servers, history) is materialized on first touch and cached; a store
// "serving a million keys" allocates per-register state only for keys that
// actually see traffic (plus one 4 KiB chunk per touched 512-key range).
// The store has one key table, in the cluster's object-table idiom: a
// directory of 512-slot chunks indexed by key, one atomic pointer per slot to
// the key's record (register, history, engine client slots). An op on a
// materialized key and client slot takes no lock — a bounds check and three
// loads; a miss (the first touch of a key, or of a client slot) takes the
// key's shard lock, builds the record once on a key's first touch and fills
// the client slot in place. Resize holds that lock across its transition
// (Reconfigure is a series of them), so no register materializes inside
// one, while ops on existing keys park on the fabric's view stamp like any
// op caught by a freeze.
//
// # TCP shards over shared node processes
//
// On the TCP lane, shards map onto a flat pool of storage-node processes:
// shard s's server j dials NodeAddrs[(s*N+j) mod P] and binds the
// connection to table "shard<s>" (lanenet.WithTable), so one node process
// hosts many shards' tables over one listener without object-id
// collisions. Killing a node process crashes one server in every shard
// with a table there — several shards each lose one fault domain, and
// every quorum still completes when f bounds hold per shard.
package shardstore

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emulation"
	"repro/internal/emulation/async"
	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/runner"
	"repro/internal/seed"
	"repro/internal/spec"
	"repro/internal/types"
)

// Routing sub-streams: the shard and engine hashes must be independent so
// engine load stays balanced within every shard.
const (
	routeStreamShard uint64 = iota
	routeStreamEngine
)

// DefaultProfile is the latency-lane delay distribution used when no
// profile is given: a LAN-ish base with enough jitter to reorder quorum
// rounds and a rare straggler spike.
var DefaultProfile = fabric.LatencyProfile{
	Base:      100 * time.Microsecond,
	Jitter:    200 * time.Microsecond,
	SpikeProb: 0.01,
	Spike:     2 * time.Millisecond,
}

// DefaultServers returns the per-shard server count provisioned for a
// construction at failure threshold f: the chaos defaults at f=1, the
// quorum minimum (2f+1, or 3f+1 for Algorithm 2's segment placement)
// above.
func DefaultServers(kind runner.Kind, f int) int {
	if f <= 1 {
		return runner.ChaosServers(kind)
	}
	if kind == runner.KindRegEmu {
		return 3*f + 1
	}
	return 2*f + 1
}

// Config parameterizes a store.
type Config struct {
	// Shards is S, the number of independent fabrics (default 1); Engines
	// is M, the number of shared async engine loops (default = Shards).
	Shards  int
	Engines int

	// Keys is the key-space size: keys 0..Keys-1 are addressable (default 1,
	// at most 1<<30 — Open allocates the key table's directory, one pointer
	// per 512 keys, and rejects more). Registers materialize lazily on first
	// touch.
	Keys uint64

	// Kind is the construction; WritersPerKey the writer slots per key's
	// register (default 1); F and N the per-shard failure threshold and
	// server count (N defaults per DefaultServers). Atomic builds the read
	// write-back variant, enabling the linearizability checks.
	Kind          runner.Kind
	WritersPerKey int
	F, N          int
	Atomic        bool

	// ValueSize, when positive, makes every register's writes carry
	// payloads of that many bytes (replicated by abd-max, striped by
	// coded) so BytesPerServer measures real storage, not just metadata.
	ValueSize int

	// Lane selects each shard's dispatch backend: runner.LaneInProc
	// (default), runner.LaneLatency with Profile, or runner.LaneTCP over
	// the NodeAddrs pool. Seed drives lane delay streams per shard.
	Lane      runner.Lane
	Profile   *fabric.LatencyProfile
	NodeAddrs []string
	// DialTimeout bounds each TCP dial (default 5s).
	DialTimeout time.Duration
	Seed        int64

	// NoHistory disables history recording (and therefore CheckAll).
	NoHistory bool
}

// Store is a sharded multi-register store: the routing frontend over S
// shards and M engine loops. All methods are safe for concurrent use.
type Store struct {
	cfg     Config
	shards  []*shard
	engines []*async.Engine
	cancel  context.CancelFunc
	closed  atomic.Bool

	// dir is the key table's directory, one pointer per keyChunkSize
	// addressable keys, sized at Open. A slot is written under its key's shard
	// lock and read without one.
	dir []atomic.Pointer[keyChunk]
}

// keyChunk is one block of the key table (the cluster's TableChunkSize: 512
// pointers are one 4 KiB allocation), allocated with the first key in its
// range and never moved; maxKeys bounds the directory Open allocates (16 MiB).
const keyChunkSize, maxKeys = 512, 1 << 30

type keyChunk [keyChunkSize]atomic.Pointer[keyreg]

// shard is one vertical slice: a fabric with its own lane group, serving the
// materialized registers of the keys routed here.
type shard struct {
	env *runner.Env

	// mu serializes the materialization of the shard's keys and is held
	// across a whole Resize / Reconfigure; readers of the table never take it.
	mu sync.Mutex
}

// keyreg is one key's materialized register and its engine clients, built
// once when the key is first touched: every writer slot and the reader slots
// asked for by then (at least one). A client slot is filled in place, under
// the shard lock, the first time it is used; only a reader slot past the end
// of clients republishes the key with a grown copy.
type keyreg struct {
	reg emulation.Register

	// clients holds the key's engine clients — writer slots first, reader
	// slots after them; nil where a slot has not been used yet. It is inline
	// when two slots do (one writer, one reader), so the record is one
	// allocation.
	clients []atomic.Pointer[async.Client]
	inline  [2]atomic.Pointer[async.Client]
}

// newKeyreg returns reg's record with n client slots, the first ones copied
// from prev.
func newKeyreg(reg emulation.Register, n int, prev []atomic.Pointer[async.Client]) *keyreg {
	kr := &keyreg{reg: reg}
	if n <= len(kr.inline) {
		kr.clients = kr.inline[:n]
	} else {
		kr.clients = make([]atomic.Pointer[async.Client], n)
	}
	for i := range prev {
		kr.clients[i].Store(prev[i].Load())
	}
	return kr
}

// lookup reads key's table slot, lock-free: nil until the key materialized.
func (st *Store) lookup(key uint64) *keyreg {
	if ch := st.dir[key/keyChunkSize].Load(); ch != nil {
		return ch[key%keyChunkSize].Load()
	}
	return nil
}

// all ranges over the materialized keys of every shard in ascending order,
// lock-free.
func (st *Store) all() iter.Seq2[uint64, *keyreg] {
	return func(yield func(uint64, *keyreg) bool) {
		for ci := range st.dir {
			ch := st.dir[ci].Load()
			for i := 0; ch != nil && i < keyChunkSize; i++ {
				if kr := ch[i].Load(); kr != nil && !yield(uint64(ci*keyChunkSize+i), kr) {
					return
				}
			}
		}
	}
}

// Open builds the store: S fabrics with their lane groups and M detached
// engine loops bounded by ctx (cancelling it fails every in-flight op, as
// does Close).
func Open(ctx context.Context, cfg Config) (*Store, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Engines <= 0 {
		cfg.Engines = cfg.Shards
	}
	if cfg.Keys = max(cfg.Keys, 1); cfg.Keys > maxKeys {
		return nil, fmt.Errorf("shardstore: key-space %d above the maximum %d", cfg.Keys, uint64(maxKeys))
	}
	if cfg.WritersPerKey <= 0 {
		cfg.WritersPerKey = 1
	}
	if cfg.F <= 0 {
		cfg.F = 1
	}
	if cfg.N <= 0 {
		cfg.N = DefaultServers(cfg.Kind, cfg.F)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Lane == "" {
		cfg.Lane = runner.LaneInProc
	}

	st := &Store{cfg: cfg, dir: make([]atomic.Pointer[keyChunk], (cfg.Keys+keyChunkSize-1)/keyChunkSize)}
	engCtx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	ok := false
	defer func() {
		if !ok {
			_ = st.Close()
		}
	}()
	for m := 0; m < cfg.Engines; m++ {
		st.engines = append(st.engines, async.NewDetached(async.WithContext(engCtx)))
	}
	for s := 0; s < cfg.Shards; s++ {
		laneOpts, err := laneOptions(cfg, s)
		if err != nil {
			return nil, err
		}
		env, err := runner.NewEnv(cfg.N, nil, laneOpts...)
		if err != nil {
			return nil, err
		}
		// The view carries the shard's failure budget from here on: Resize
		// moves it, and a register materializing later reads it back.
		env.Cluster.SetF(cfg.F)
		st.shards = append(st.shards, &shard{env: env})
	}
	ok = true
	return st, nil
}

// laneOptions builds shard s's lane group.
func laneOptions(cfg Config, s int) ([]fabric.Option, error) {
	switch cfg.Lane {
	case runner.LaneInProc:
		return nil, nil
	case runner.LaneLatency:
		profile := DefaultProfile
		if cfg.Profile != nil {
			profile = *cfg.Profile
		}
		// Each shard draws its delays from an independent sub-stream, so
		// shards never share correlated spikes.
		maker := fabric.LatencyLanes(seed.Sub(cfg.Seed, uint64(s)), profile)
		return []fabric.Option{fabric.WithLanes(maker)}, nil
	case runner.LaneTCP:
		if len(cfg.NodeAddrs) == 0 {
			return nil, errors.New("shardstore: TCP lane needs NodeAddrs")
		}
		addrs := make([]string, cfg.N)
		for j := range addrs {
			addrs[j] = cfg.NodeAddrs[(s*cfg.N+j)%len(cfg.NodeAddrs)]
		}
		maker, _, err := lanenet.Lanes(addrs, cfg.DialTimeout, lanenet.WithTable(fmt.Sprintf("shard%d", s)))
		if err != nil {
			return nil, fmt.Errorf("shardstore: shard %d: %w", s, err)
		}
		return []fabric.Option{fabric.WithLanes(maker)}, nil
	default:
		return nil, fmt.Errorf("shardstore: unknown lane %q", cfg.Lane)
	}
}

// NumShards returns S.
func (st *Store) NumShards() int { return len(st.shards) }

// NumEngines returns M.
func (st *Store) NumEngines() int { return len(st.engines) }

// Keys returns the key-space size.
func (st *Store) Keys() uint64 { return st.cfg.Keys }

// ShardOf routes a key to its shard: a pure function of (key, S) — no
// state, so the mapping is identical across store instances and restarts.
func (st *Store) ShardOf(key uint64) int {
	return int(uint64(seed.Sub(int64(key), routeStreamShard)) % uint64(len(st.shards)))
}

// EngineOf pins a key to its engine loop, independently of ShardOf.
func (st *Store) EngineOf(key uint64) int {
	return int(uint64(seed.Sub(int64(key), routeStreamEngine)) % uint64(len(st.engines)))
}

// Env exposes shard s's environment (cluster + fabric) for fault injection
// and space accounting.
func (st *Store) Env(s int) *runner.Env { return st.shards[s].env }

// Crash crashes one server of one shard: every in-flight and future
// operation on that server's objects stays pending forever, in that shard
// only.
func (st *Store) Crash(s int, server types.ServerID) error {
	return st.shards[s].env.Fabric.Crash(server)
}

// Reconfigure performs a rolling replacement of every current member of
// shard s: one Resize{Grow: 1, Shrink: 1} per original member, each
// retiring the longest-serving member — an original one, since every
// joiner takes a higher ID — while the shard keeps serving. A one-for-one
// swap keeps n and f, so each step freezes only its leaver and transfers
// its objects with their state onto the joiner; operations caught in a
// freeze window retry transparently. After Reconfigure returns, none of
// the shard's original servers remain in the view.
func (st *Store) Reconfigure(ctx context.Context, s int) error {
	if s < 0 || s >= len(st.shards) {
		return fmt.Errorf("shardstore: shard %d outside [0, %d)", s, len(st.shards))
	}
	for range st.shards[s].env.Cluster.View().N() {
		if _, err := st.Resize(ctx, s, ResizeSpec{Grow: 1, Shrink: 1}); err != nil {
			return err
		}
	}
	return nil
}

// ResizeSpec describes one shard's batched membership delta: admit Grow
// joiners, retire the Shrink longest-serving members, and (optionally)
// move the failure budget to F — all under a single epoch bump.
type ResizeSpec struct {
	// Grow is how many fresh servers join; Shrink how many current members
	// leave (the lowest-ID, so longest-serving, members of the live view).
	// Both may be zero.
	Grow, Shrink int
	// F, when positive, is the shard's new failure budget; 0 keeps the
	// current one.
	F int
}

// Resize commits a batched view transition on shard s: all joins, leaves,
// and the f change activate together under one epoch bump. A spec that
// keeps n and f (Grow == Shrink, F zero or unchanged) swaps members: the
// leavers' objects move with their state onto the joiners, and the
// registers keep their placements. Any other spec re-derives the quorum
// thresholds, and every materialized register re-places its base objects
// against the new geometry inside the frozen window
// (emulation.Register.Reshape); a geometry some register cannot host
// aborts the transition onto the intact old view.
//
// The shard lock is held for the whole transition, so no key materializes
// inside it; keys materializing afterwards read the new member set and the
// new f from the view. Ops on materialized keys do not take the lock: those
// routed at a frozen server — a swap's leavers, every member of a reshaping
// transition — bounce and park on the view stamp until it ends.
func (st *Store) Resize(ctx context.Context, s int, spec ResizeSpec) (*fabric.ResizeResult, error) {
	if s < 0 || s >= len(st.shards) {
		return nil, fmt.Errorf("shardstore: shard %d outside [0, %d)", s, len(st.shards))
	}
	if spec.Grow < 0 || spec.Shrink < 0 || spec.F < 0 {
		return nil, fmt.Errorf("shardstore: negative resize spec %+v", spec)
	}
	sh := st.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	view := sh.env.Cluster.View()
	if spec.Shrink > len(view.Members) {
		return nil, fmt.Errorf("shardstore: shard %d cannot shed %d of %d members", s, spec.Shrink, len(view.Members))
	}
	fspec := fabric.ResizeSpec{Leave: view.Members[:spec.Shrink], F: spec.F}
	for i := 0; i < spec.Grow; i++ {
		maker, err := st.joinerMakerAt(s, sh.env.Cluster.N()+i)
		if err != nil {
			return nil, fmt.Errorf("shardstore: shard %d joiner %d: %w", s, i, err)
		}
		fspec.Join = append(fspec.Join, maker)
	}
	// The reshape runs only on a shape change. No key materializes while
	// the shard lock is held, so it walks the shard's registers in place.
	res, err := sh.env.Fabric.Resize(ctx, fspec, func(rs *fabric.Reshaper) error {
		for key, kr := range st.all() {
			if st.ShardOf(key) != s {
				continue
			}
			if err := kr.reg.Reshape(rs); err != nil {
				return fmt.Errorf("shardstore: key %d: %w", key, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shardstore: shard %d resize: %w", s, err)
	}
	return res, nil
}

// joinerMakerAt builds the lane maker for the joiner that will be assigned
// server ID next on shard s (IDs are monotone: Cluster.N() + the joiner's
// index within the batch). TCP shards need a real maker — the Open-time
// maker closes over a fixed client slice and cannot serve a grown server
// ID — so the joiner's connection is dialed here, round-robin over the
// node pool. Other lanes return nil: the fabric's default maker already
// covers any ID.
func (st *Store) joinerMakerAt(s, next int) (fabric.LaneMaker, error) {
	if st.cfg.Lane != runner.LaneTCP {
		return nil, nil
	}
	addr := st.cfg.NodeAddrs[(s*st.cfg.N+next)%len(st.cfg.NodeAddrs)]
	// The joiner's table is namespaced by its server ID, not just the
	// shard: node processes never delete objects, so a joiner landing on a
	// node that once hosted a departed server of the same shard would
	// otherwise hit the idempotent re-place rule and resurrect the stale
	// copy instead of materializing the transferred state.
	table := fmt.Sprintf("shard%d.s%d", s, next)
	c, err := lanenet.Dial(addr, st.cfg.DialTimeout, lanenet.WithTable(table))
	if err != nil {
		return nil, err
	}
	return func(types.ServerID) fabric.Lane { return c }, nil
}

// Writer returns the engine client for writer slot i (in [0, WritersPerKey))
// of key's register, materializing the register on first touch. Repeated
// calls return the same client — ops through it serialize in invocation
// order on the key's engine loop.
func (st *Store) Writer(key uint64, slot int) (*async.Client, error) {
	if slot < 0 || slot >= st.cfg.WritersPerKey {
		return nil, fmt.Errorf("shardstore: writer slot %d outside [0, %d)", slot, st.cfg.WritersPerKey)
	}
	return st.client(key, slot)
}

// Reader returns the engine client for reader slot i of key's register
// (slots are unbounded; each is a distinct logical client). Repeated calls
// with the same slot return the same client.
func (st *Store) Reader(key uint64, slot int) (*async.Client, error) {
	if slot < 0 {
		return nil, fmt.Errorf("shardstore: negative reader slot %d", slot)
	}
	return st.client(key, st.cfg.WritersPerKey+slot)
}

// client returns entry i of key's client cache: same (key, i) ⇒ same
// client. A hit takes no lock.
func (st *Store) client(key uint64, i int) (*async.Client, error) {
	if key >= st.cfg.Keys {
		return nil, fmt.Errorf("shardstore: key %d outside key-space [0, %d)", key, st.cfg.Keys)
	}
	if kr := st.lookup(key); kr != nil && i < len(kr.clients) {
		if c := kr.clients[i].Load(); c != nil {
			return c, nil
		}
	}
	return st.materialize(key, i)
}

// materialize is the miss path, under the key's shard lock: it builds key's
// register and record on first touch (republishing a grown copy only for a
// reader slot past the record's end) and fills client slot i in place.
func (st *Store) materialize(key uint64, i int) (*async.Client, error) {
	sh := st.shards[st.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	kr := st.lookup(key)
	if kr == nil || i >= len(kr.clients) {
		var reg emulation.Register
		var prev []atomic.Pointer[async.Client]
		if kr != nil {
			reg, prev = kr.reg, kr.clients
		} else {
			var err error
			reg, _, err = runner.BuildWith(st.cfg.Kind, sh.env.Fabric, st.cfg.WritersPerKey, sh.env.Cluster.F(),
				runner.BuildOpts{ValueSize: st.cfg.ValueSize, Atomic: st.cfg.Atomic})
			if err != nil {
				return nil, fmt.Errorf("shardstore: materializing key %d: %w", key, err)
			}
			if st.cfg.NoHistory {
				reg.History().SetDiscard(true)
			}
		}
		kr = newKeyreg(reg, max(st.cfg.WritersPerKey+1, i+1), prev)
		// Another shard's miss may be installing the same chunk: first one wins.
		ch := &st.dir[key/keyChunkSize]
		if ch.Load() == nil {
			ch.CompareAndSwap(nil, new(keyChunk))
		}
		ch.Load()[key%keyChunkSize].Store(kr)
	}
	if c := kr.clients[i].Load(); c != nil {
		return c, nil // a racing miss filled it first
	}
	eng := st.engines[st.EngineOf(key)]
	var c *async.Client
	if i >= st.cfg.WritersPerKey {
		c = eng.ReaderOn(kr.reg)
	} else {
		var err error
		if c, err = eng.WriterOn(kr.reg, i); err != nil {
			return nil, err
		}
	}
	kr.clients[i].Store(c)
	return c, nil
}

// StartWrite routes one high-level write through the frontend: key to
// shard, shard to register, writer slot to engine client. done fires
// exactly once on the key's engine loop (or inline, on a routing error).
func (st *Store) StartWrite(key uint64, slot int, v types.Value, done func(error)) {
	c, err := st.Writer(key, slot)
	if err != nil {
		done(err)
		return
	}
	c.StartWrite(v, done)
}

// StartRead is the read-side frontend; the same contract as StartWrite.
func (st *Store) StartRead(key uint64, slot int, done func(types.Value, error)) {
	c, err := st.Reader(key, slot)
	if err != nil {
		done(types.InitialValue, err)
		return
	}
	c.StartRead(done)
}

// MaterializedKeys returns how many keys have registers built, per shard.
func (st *Store) MaterializedKeys() []int {
	counts := make([]int, len(st.shards))
	for key := range st.all() {
		counts[st.ShardOf(key)]++
	}
	return counts
}

// PerServerBytes sums every shard's per-server storage footprint
// index-wise: entry j is the bytes held by server slot j across all
// shards. Bytes are tracked by the in-process clusters, so on the TCP
// lane (where objects live in node processes) every entry is zero — query
// the nodes' own BytesStored counters there.
func (st *Store) PerServerBytes() []int64 {
	var out []int64
	for _, sh := range st.shards {
		for j, b := range sh.env.Cluster.PerServerBytes() {
			for len(out) <= j {
				out = append(out, 0)
			}
			out[j] += b
		}
	}
	return out
}

// TotalBytes is the sum of PerServerBytes across all shards and servers.
func (st *Store) TotalBytes() int64 {
	var total int64
	for _, b := range st.PerServerBytes() {
		total += b
	}
	return total
}

// EngineStats snapshots every engine loop's operation counters.
func (st *Store) EngineStats() []async.Stats {
	out := make([]async.Stats, len(st.engines))
	for i, e := range st.engines {
		out[i] = e.Stats()
	}
	return out
}

// BalancedKeys picks n distinct keys spread evenly over the shards — the
// lowest key ids that fill a per-shard quota of ceil(n/S) — so loads built
// on small key counts exercise every shard. Deterministic.
func (st *Store) BalancedKeys(n int) []uint64 {
	if uint64(n) >= st.cfg.Keys {
		keys := make([]uint64, st.cfg.Keys)
		for i := range keys {
			keys[i] = uint64(i)
		}
		return keys
	}
	s := len(st.shards)
	quota := make([]int, s)
	for i := range quota {
		quota[i] = n / s
		if i < n%s {
			quota[i]++
		}
	}
	keys := make([]uint64, 0, n)
	var skipped []uint64
	for key := uint64(0); key < st.cfg.Keys && len(keys) < n; key++ {
		sh := st.ShardOf(key)
		if quota[sh] > 0 {
			quota[sh]--
			keys = append(keys, key)
		} else {
			skipped = append(skipped, key)
		}
	}
	// The hash may starve a quota before the key-space runs out; fill the
	// remainder from the lowest skipped keys so the count is exact.
	for i := 0; len(keys) < n && i < len(skipped); i++ {
		keys = append(keys, skipped[i])
	}
	return keys
}

// Drain blocks until every operation issued so far on every engine has
// completed (or failed), or ctx expires.
func (st *Store) Drain(ctx context.Context) error {
	for _, e := range st.engines {
		if err := e.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// CheckReport is the outcome of CheckAll.
type CheckReport struct {
	// Keys is how many materialized registers were checked; HistoryOps the
	// total recorded high-level ops; SampledOps how many ops the
	// linearizability samples covered (atomic builds only).
	Keys       int
	HistoryOps int
	SampledOps int
	// Violations is empty on a healthy store.
	Violations []string
}

// CheckAll verifies every materialized key's history: read validity
// always, and sampleChecks independent linearizability samples per key on
// atomic builds. Call after Drain so histories are complete.
func (st *Store) CheckAll(sampleChecks int, checkSeed int64) CheckReport {
	var rep CheckReport
	if st.cfg.NoHistory {
		return rep
	}
	if sampleChecks <= 0 {
		sampleChecks = 4
	}
	for key, kr := range st.all() {
		rep.Keys++
		ops := kr.reg.History().Snapshot()
		rep.HistoryOps += len(ops)
		if err := spec.CheckReadValidity(ops, types.InitialValue); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("key %d: %v", key, err))
		}
		if !st.cfg.Atomic {
			continue
		}
		keySeed := seed.Sub(checkSeed, key)
		for chk := 0; chk < sampleChecks; chk++ {
			sample := spec.SampleLinearizable(ops, 1024, seed.Sub(keySeed, uint64(chk+1)))
			rep.SampledOps += len(sample)
			if err := spec.CheckLinearizable(sample, types.InitialValue); err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf("key %d: %v", key, err))
			}
		}
	}
	return rep
}

// Close shuts the store down: every engine closes (failing queued and
// in-flight ops with async.ErrClosed) and every shard's fabric closes its
// lanes. Idempotent.
func (st *Store) Close() error {
	if !st.closed.CompareAndSwap(false, true) {
		return nil
	}
	st.cancel()
	for _, e := range st.engines {
		_ = e.Close()
	}
	for _, sh := range st.shards {
		if sh != nil && sh.env != nil {
			sh.env.Fabric.Close()
		}
	}
	return nil
}
