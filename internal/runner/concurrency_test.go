package runner

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/emulation"
	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// TestAllKindsConcurrentStress hammers every construction with k concurrent
// writers plus readers through the sharded fabric (run with -race): the
// per-server dispatch lanes, the lock-free call completion, and the batch
// scatters of the round engine all get exercised under modeled response
// latency. Writers are concurrent, so the write-sequential checkers do not
// apply; the run asserts completion and read validity (every read returns
// v0 or a written value).
func TestAllKindsConcurrentStress(t *testing.T) {
	const (
		writers = 4
		readers = 3
		ops     = 15
	)
	ctx := testCtx(t)
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			n := 6
			if kind != KindRegEmu {
				n = 5 // aacmax requires n = 2f+1; the quorum kinds only use 2f+1 servers
			}
			env, err := NewEnv(n, &fabric.YieldGate{})
			if err != nil {
				t.Fatal(err)
			}
			reg, hist, err := BuildWith(kind, env.Fabric, writers, 2, BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)
			values := NewValueGen()
			for i := 0; i < writers; i++ {
				w, err := reg.Writer(i)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, w *emulation.Writer) {
					defer wg.Done()
					for op := 0; op < ops; op++ {
						if err := w.Write(ctx, values.Next(types.ClientID(i))); err != nil {
							errs <- fmt.Errorf("writer %d: %w", i, err)
							return
						}
					}
				}(i, w)
			}
			for r := 0; r < readers; r++ {
				rd := reg.NewReader()
				wg.Add(1)
				go func(rd *emulation.Reader) {
					defer wg.Done()
					for op := 0; op < ops; op++ {
						if _, err := rd.Read(ctx); err != nil {
							errs <- fmt.Errorf("reader: %w", err)
							return
						}
					}
				}(rd)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("concurrent op: %v", err)
			}
			ops := hist.Snapshot()
			if len(ops) != (writers+readers)*15 {
				t.Fatalf("history has %d ops, want %d", len(ops), (writers+readers)*15)
			}
			if err := spec.CheckReadValidity(ops, types.InitialValue); err != nil {
				t.Fatalf("read validity: %v", err)
			}
		})
	}
}

// TestConcurrentWritersLinearizable drives the two atomic configurations
// (read write-back upgrades ABD reads to linearizable) with genuinely
// concurrent writers and readers and then checks full linearizability of
// the recorded history with the spec checker's Wing–Gong search.
func TestConcurrentWritersLinearizable(t *testing.T) {
	const (
		writers = 3
		readers = 2
		ops     = 3 // (3+2)*3 = 15 ops, comfortably inside the 64-op search bound
	)
	ctx := testCtx(t)
	for _, kind := range []Kind{KindABDMax, KindCASMax} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			env, err := NewEnv(3, &fabric.YieldGate{})
			if err != nil {
				t.Fatal(err)
			}
			reg, hist, err := BuildWith(kind, env.Fabric, writers, 1, BuildOpts{Atomic: true})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)
			values := NewValueGen()
			for i := 0; i < writers; i++ {
				w, err := reg.Writer(i)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, w *emulation.Writer) {
					defer wg.Done()
					for op := 0; op < ops; op++ {
						if err := w.Write(ctx, values.Next(types.ClientID(i))); err != nil {
							errs <- err
							return
						}
					}
				}(i, w)
			}
			for r := 0; r < readers; r++ {
				rd := reg.NewReader()
				wg.Add(1)
				go func(rd *emulation.Reader) {
					defer wg.Done()
					for op := 0; op < ops; op++ {
						if _, err := rd.Read(ctx); err != nil {
							errs <- err
							return
						}
					}
				}(rd)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("concurrent op: %v", err)
			}
			if err := spec.CheckLinearizable(hist.Snapshot(), types.InitialValue); err != nil {
				t.Fatalf("linearizability: %v", err)
			}
		})
	}
}

// TestWriteSequentialWithConcurrentReaders issues writes sequentially
// (rotating through all k writer handles) while readers run concurrently,
// which is exactly the write-sequential regime of the paper's conditions:
// the WS-Safety and WS-Regularity checkers must both accept every
// construction's history.
func TestWriteSequentialWithConcurrentReaders(t *testing.T) {
	const (
		writers   = 3
		readers   = 3
		writeOps  = 12
		readerOps = 12
	)
	ctx := testCtx(t)
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			n := 6
			if kind != KindRegEmu {
				n = 5
			}
			env, err := NewEnv(n, &fabric.YieldGate{})
			if err != nil {
				t.Fatal(err)
			}
			reg, hist, err := BuildWith(kind, env.Fabric, writers, 2, BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]*emulation.Writer, writers)
			for i := range handles {
				if handles[i], err = reg.Writer(i); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, readers+1)
			for r := 0; r < readers; r++ {
				rd := reg.NewReader()
				wg.Add(1)
				go func(rd *emulation.Reader) {
					defer wg.Done()
					for op := 0; op < readerOps; op++ {
						if _, err := rd.Read(ctx); err != nil {
							errs <- err
							return
						}
					}
				}(rd)
			}
			values := NewValueGen()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := 0; op < writeOps; op++ {
					w := handles[op%writers]
					if err := w.Write(ctx, values.Next(w.Client())); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("op: %v", err)
			}
			ops := hist.Snapshot()
			if err := spec.CheckWSSafety(ops, types.InitialValue); err != nil {
				t.Fatalf("WS-Safety: %v", err)
			}
			if err := spec.CheckWSRegularity(ops, types.InitialValue); err != nil {
				t.Fatalf("WS-Regularity: %v", err)
			}
		})
	}
}
