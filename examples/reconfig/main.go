// Reconfig: live rolling replacement of a shard's entire server set while
// the store keeps serving traffic — the dynamic-membership counterpart of
// the cloudstore example's crash run.
//
// A two-shard store (internal/shardstore) serves seeded random traffic
// over a set of hot keys. A third of the way in, shard 0's three servers
// are replaced one by one (shardstore.Reconfigure: one Resize{Grow: 1,
// Shrink: 1} per server). A one-for-one swap keeps n and f, so only the
// departing server freezes: a fresh server joins the view, the departing
// one drains, every base object it hosts moves — state included — onto the
// joiner, and the old server leaves; the registers keep their placements
// and the other servers keep serving throughout. Clients
// never stop: an operation caught in a freeze window completes with a
// retryable view-change error (guaranteed never applied, so the retry is
// exactly-once safe) and re-executes transparently in the new view. Zero
// failed operations is the bar, not a statistic.
//
// The run ends the way every example here ends — checking history, not
// vibes: every touched key's recorded operations must be read-valid and
// sampled-linearizable (shardstore.CheckAll), despite the entire shard
// having been bodily moved mid-run.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/runner"
	"repro/internal/shardstore"
	"repro/internal/types"
)

func main() {
	const (
		shards   = 2
		keySpace = 1 << 16
		hotKeys  = 64
		opsTotal = hotKeys * 40
		window   = 48 // bounded in-flight operation window
		seed     = 2017
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := shardstore.Open(ctx, shardstore.Config{
		Shards: shards, Engines: shards, Keys: keySpace,
		Kind: runner.KindABDMax, Atomic: true, F: 1, N: 3,
		Seed: seed,
	})
	if err != nil {
		log.Fatalf("shardstore: %v", err)
	}
	defer st.Close()
	before := st.Env(0).Cluster.View()
	fmt.Printf("store open: %d shards, shard 0 view epoch %d members %v\n",
		st.NumShards(), before.Epoch, before.Members)

	rng := rand.New(rand.NewSource(seed))
	keys := st.BalancedKeys(hotKeys)
	vals := make(map[uint64]int64, hotKeys)
	sem := make(chan struct{}, window)
	fail := make(chan error, 1)
	reconfDone := make(chan error, 1)
	reconfAt := opsTotal / 3
	reconfStarted := false
	for i := 0; i < opsTotal; i++ {
		select {
		case err := <-fail:
			log.Fatalf("operation failed: %v", err)
		default:
		}
		if !reconfStarted && i >= reconfAt {
			reconfStarted = true
			fmt.Printf("rolling replacement of shard 0 begins (%d ops in flight)\n", len(sem))
			go func() { reconfDone <- st.Reconfigure(ctx, 0) }()
		}
		key := keys[rng.Intn(len(keys))]
		sem <- struct{}{}
		if rng.Intn(2) == 0 {
			vals[key]++
			st.StartWrite(key, 0, types.Value(vals[key]), func(err error) {
				if err != nil {
					select {
					case fail <- err:
					default:
					}
				}
				<-sem
			})
		} else {
			st.StartRead(key, 0, func(_ types.Value, err error) {
				if err != nil {
					select {
					case fail <- err:
					default:
					}
				}
				<-sem
			})
		}
	}
	if err := <-reconfDone; err != nil {
		log.Fatalf("reconfigure: %v", err)
	}
	if err := st.Drain(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	select {
	case err := <-fail:
		log.Fatalf("operation failed: %v", err)
	default:
	}

	after := st.Env(0).Cluster.View()
	fmt.Printf("shard 0 reconfigured: epoch %d -> %d, members %v -> %v, crashes %d (a leave is not a crash)\n",
		before.Epoch, after.Epoch, before.Members, after.Members, st.Env(0).Cluster.Crashes())
	for _, m := range after.Members {
		for _, old := range before.Members {
			if m == old {
				log.Fatalf("server %d survived the rolling replacement", m)
			}
		}
	}

	// The gate: every touched key's history must be clean despite the
	// entire shard having moved under live load.
	rep := st.CheckAll(2, seed)
	for _, v := range rep.Violations {
		log.Printf("VIOLATION: %s", v)
	}
	if len(rep.Violations) > 0 {
		log.Fatalf("%d consistency violations", len(rep.Violations))
	}
	fmt.Printf("checked %d keys: %d history ops valid, %d sampled ops linearizable, 0 violations\n",
		rep.Keys, rep.HistoryOps, rep.SampledOps)
	fmt.Println("zero failed operations, zero violations: reconfiguration was invisible to clients")
}
