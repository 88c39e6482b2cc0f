package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/shardstore"
	"repro/internal/types"
)

// client is one logical writer or reader of one key, as the load loops see
// it: enough to issue an op and to file its completion under the right
// engine loop.
type client struct {
	idx   int // position in the driver's client table
	key   uint64
	keyIx int // position in the key table (indexes the write-value counters)
	slot  int
	write bool
	loop  int // engine loop the key is pinned to
}

// driver is what the load loops issue ops against: the sharded store in
// the measured and checked passes, the span-instrumented stack in the
// traced pass. Callbacks fire on the client's engine loop.
type driver interface {
	startWrite(c *client, v types.Value, done func(error))
	startRead(c *client, done func(types.Value, error))
}

// clientTable lays out a workload's clients: writers first, then readers,
// each ordered slot-major so consecutive entries sit on different keys and
// round-robin issue spreads over keys before it revisits one.
type clientTable struct {
	writers, readers []*client
	all              []*client
	nextVal          []atomic.Int64 // per key: last write value handed out
}

func newClientTable(w *workload, keys []uint64, loopOf func(key uint64) int) *clientTable {
	t := &clientTable{nextVal: make([]atomic.Int64, len(keys))}
	add := func(slots int, write bool) []*client {
		var out []*client
		for slot := 0; slot < slots; slot++ {
			for ki, key := range keys {
				c := &client{idx: len(t.all), key: key, keyIx: ki, slot: slot, write: write, loop: loopOf(key)}
				t.all = append(t.all, c)
				out = append(out, c)
			}
		}
		return out
	}
	t.writers = add(w.WriterSlots, true)
	t.readers = add(w.ReaderSlots, false)
	return t
}

// value hands out the key's next write value: unique per key, which is what
// makes the history checkers exact.
func (t *clientTable) value(c *client) types.Value { return types.Value(t.nextVal[c.keyIx].Add(1)) }

// deployment is one pass's system under test: optional node processes plus
// the opened, fully materialized, first-touched store.
type deployment struct {
	w       *workload
	nodes   *nodeSet
	st      *shardstore.Store
	clients *clientTable

	setup      time.Duration // spawn + Open + materialize + first touch
	firstTouch time.Duration // the write+read on every key alone
}

// storeDriver issues through the store's public frontend, so the measured
// op includes key routing and handle lookup.
type storeDriver struct{ st *shardstore.Store }

func (d storeDriver) startWrite(c *client, v types.Value, done func(error)) {
	d.st.StartWrite(c.key, c.slot, v, done)
}

func (d storeDriver) startRead(c *client, done func(types.Value, error)) {
	d.st.StartRead(c.key, c.slot, done)
}

// keySpace is the addressable key range the workload's keys are drawn from
// (BalancedKeys picks the lowest ids that fill every shard evenly).
const keySpace = 1 << 20

// deploy performs set-up as the benchmark defines it — spawn nodes, Open,
// materialize every client handle, then one write and one read on every key
// — and times it. First-touch costs (register construction, route-table
// growth, placement mirroring) therefore land in setup_s and not in the
// window.
func deploy(ctx context.Context, w *workload, nodeBin string, seed int64, history bool) (_ *deployment, err error) {
	d := &deployment{w: w}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	began := time.Now()
	cfg := shardstore.Config{
		Shards: w.Shards, Engines: w.Engines, Keys: keySpace,
		Kind: w.Kind, WritersPerKey: w.WriterSlots, F: 1, N: w.N,
		Atomic: w.Atomic, ValueSize: w.ValueSize,
		Lane: w.Lane, Seed: seed, NoHistory: !history,
	}
	if w.Lane == runner.LaneTCP {
		if d.nodes, err = spawnNodes(ctx, nodeBin, w.Nodes); err != nil {
			return nil, err
		}
		cfg.NodeAddrs = d.nodes.addrs()
	}
	if d.st, err = shardstore.Open(ctx, cfg); err != nil {
		return nil, err
	}
	keys := d.st.BalancedKeys(w.Keys)
	if len(keys) != w.Keys {
		return nil, fmt.Errorf("wanted %d keys, store offered %d", w.Keys, len(keys))
	}
	d.clients = newClientTable(w, keys, func(key uint64) int { return d.st.EngineOf(key) })
	for _, c := range d.clients.all {
		if c.write {
			_, err = d.st.Writer(c.key, c.slot)
		} else {
			_, err = d.st.Reader(c.key, c.slot)
		}
		if err != nil {
			return nil, err
		}
	}
	touchBegan := time.Now()
	if err := firstTouch(ctx, storeDriver{d.st}, d.clients, func() error { return d.st.Drain(ctx) }); err != nil {
		return nil, err
	}
	d.firstTouch = time.Since(touchBegan)
	d.setup = time.Since(began)
	return d, nil
}

// firstTouchWave is how many first-touch ops are in flight at once. It is
// kept below every workload's steady concurrency so the engines' lifetime
// MaxInFlight counter reports the load's peak, not the set-up's.
const firstTouchWave = 64

// firstTouch writes every key once through writer slot 0, then reads every
// key once through reader slot 0, in waves of firstTouchWave.
func firstTouch(ctx context.Context, drv driver, t *clientTable, drain func() error) error {
	nKeys := len(t.nextVal)
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	for _, group := range [][]*client{t.writers[:nKeys], t.readers[:nKeys]} {
		for len(group) > 0 {
			wave := group[:min(firstTouchWave, len(group))]
			group = group[len(wave):]
			for _, c := range wave {
				if c.write {
					drv.startWrite(c, t.value(c), fail)
				} else {
					drv.startRead(c, func(_ types.Value, err error) { fail(err) })
				}
			}
			if err := drain(); err != nil {
				return err
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return fmt.Errorf("first touch: %w", firstErr)
	}
	return ctx.Err()
}

func (d *deployment) close() {
	if d.st != nil {
		_ = d.st.Close()
		d.st = nil
	}
	d.nodes.stop()
	d.nodes = nil
}

// objectsPerKey is the paper's resource complexity: base objects placed per
// emulated register, summed over every shard's cluster.
func (d *deployment) objectsPerKey() float64 {
	total := 0
	for s := 0; s < d.st.NumShards(); s++ {
		total += d.st.Env(s).Cluster.ResourceComplexity()
	}
	return float64(total) / float64(d.w.Keys)
}

// storedBytesPerKey is the space axis of the coded construction: bytes held
// by all servers per register. Zero on timestamp-only workloads and on TCP,
// where the bytes live in the node processes.
func (d *deployment) storedBytesPerKey() float64 {
	var total int64
	for _, b := range d.st.PerServerBytes() {
		total += b
	}
	return float64(total) / float64(d.w.Keys)
}

// triggers sums the shards' low-level trigger counters.
func (d *deployment) triggers() uint64 {
	var total uint64
	for s := 0; s < d.st.NumShards(); s++ {
		total += d.st.Env(s).Fabric.Triggers()
	}
	return total
}

// crashShards crashes server 0 in every shard: one fault per fault domain,
// exactly the f=1 budget.
func (d *deployment) crashShards() error {
	for s := 0; s < d.st.NumShards(); s++ {
		if err := d.st.Crash(s, 0); err != nil {
			return err
		}
	}
	return nil
}
