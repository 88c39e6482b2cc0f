package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation/coded"
	"repro/internal/shardstore"
	"repro/internal/types"
)

// The lower rungs of the cost ladder are timed by calling each layer
// directly, outside any window, at the workload's geometry.

// timeLoop runs fn iters times and returns the mean duration of one call in
// nanoseconds. Batches of the loop are timed apart and the median batch is
// reported, so one preemption does not move the figure.
func timeLoop(iters int, fn func()) float64 {
	const batches = 9
	per := max(iters/batches, 1)
	means := make([]float64, batches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(means)
}

// routeNS times the store's handle lookup on warm keys: Store.Writer and
// Store.Reader alternately over the workload's clients.
func routeNS(st *shardstore.Store, t *clientTable) (float64, error) {
	var err error
	i := 0
	ns := timeLoop(200_000, func() {
		c := t.all[i%len(t.all)]
		i++
		var e error
		if c.write {
			_, e = st.Writer(c.key, c.slot)
		} else {
			_, e = st.Reader(c.key, c.slot)
		}
		if e != nil {
			err = e
		}
	})
	return ns, err
}

// clusterApplyNS times cluster.Apply on a max-register of an n-server
// cluster: alternating write-max and read-max, the base-object rung.
func clusterApplyNS(n int) (float64, error) {
	c, err := cluster.New(n)
	if err != nil {
		return 0, err
	}
	obj, err := c.PlaceMaxRegister(0)
	if err != nil {
		return 0, err
	}
	var ts uint64
	ns := timeLoop(400_000, func() {
		ts++
		inv := baseobj.Invocation{Op: baseobj.OpReadMax}
		if ts%2 == 0 {
			inv = baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: types.TSValue{TS: ts, Val: types.Value(ts)}}
		}
		if _, e := c.Apply(obj, 0, inv); e != nil {
			err = e
		}
	})
	return ns, err
}

// codedNS times Reed–Solomon encode and decode of one value at the coded
// construction's geometry (kData = n-2f data shards of n). Decode is given
// the last kData fragments, so every parity row takes part.
func codedNS(n, valueSize int) (encodeNS, decodeNS float64, err error) {
	k := n - 2
	cd, err := coded.NewCoder(k, n)
	if err != nil {
		return 0, 0, err
	}
	data := types.PayloadFor(1, valueSize)
	var frags [][]byte
	encodeNS = timeLoop(90, func() { frags = cd.Encode(data) })
	have := make(map[int][]byte, k)
	for i := n - k; i < n; i++ {
		have[i] = frags[i]
	}
	var out []byte
	decodeNS = timeLoop(90, func() {
		var e error
		if out, e = cd.Decode(len(data), have); e != nil {
			err = e
		}
	})
	if err == nil && !bytes.Equal(out, data) {
		err = fmt.Errorf("coded: decode of %d bytes did not round-trip", valueSize)
	}
	return encodeNS, decodeNS, err
}

// constructionOpP50 drives key 0's register through its blocking handles —
// no engine, no store — alternating writes and reads on the traced stack's
// lanes, and returns the median op time. async's own cost is the async.op
// span minus this.
func (ts *tracedStack) constructionOpP50(ctx context.Context, ops int) (time.Duration, error) {
	reg := ts.regs[0]
	w, err := reg.Writer(0)
	if err != nil {
		return 0, err
	}
	r := reg.NewReader()
	lats := make([]int64, 0, ops)
	for i := 0; i < ops; i++ {
		octx, cancel := context.WithTimeout(ctx, drainLimit)
		t0 := time.Now()
		if i%2 == 0 {
			err = w.Write(octx, ts.clients.value(ts.clients.writers[0]))
		} else {
			_, err = r.Read(octx)
		}
		lats = append(lats, int64(time.Since(t0)))
		cancel()
		if err != nil {
			return 0, fmt.Errorf("blocking op %d: %w", i, err)
		}
	}
	slices.Sort(lats)
	return time.Duration(rankQuantile(lats, 0.5)), nil
}
