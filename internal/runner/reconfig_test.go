package runner

import (
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/types"
)

// TestReconfigureMidFlightAllKinds replaces every server of every
// construction — the five from the paper's Table 1 plus the naive baseline
// coverage — while a writer and two readers keep operating. The acceptance
// bar is zero failed client operations: every op caught in a freeze window
// must retry transparently into the new view, and the transferred state
// must keep the write-sequential checkers green for the sound kinds.
func TestReconfigureMidFlightAllKinds(t *testing.T) {
	for _, kind := range []Kind{KindRegEmu, KindABDMax, KindCASMax, KindAACMax, KindNaive} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			ctx := testCtx(t)
			env, err := NewEnv(ChaosServers(kind), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Fabric.Close()
			reg, hist, err := BuildWith(kind, env.Fabric, 2, 2, BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}

			// One writer keeps the history write-sequential; two readers
			// overlap it and each other freely.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, 3)
			w, err := reg.Writer(0)
			if err != nil {
				t.Fatal(err)
			}
			values := NewValueGen()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := w.Write(ctx, values.Next(types.ClientID(0))); err != nil {
						errs <- err
						return
					}
				}
			}()
			for r := 0; r < 2; r++ {
				rd := reg.NewReader()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := rd.Read(ctx); err != nil {
							errs <- err
							return
						}
					}
				}()
			}

			// Rolling replacement of every original server, mid-flight: each
			// one-for-one swap transfers, so the reshape is never called.
			for _, old := range env.Cluster.View().Members {
				spec := fabric.ResizeSpec{Join: []fabric.LaneMaker{nil}, Leave: []types.ServerID{old}}
				if _, err := env.Fabric.Resize(ctx, spec, reg.Reshape); err != nil {
					t.Fatalf("swap of server %d: %v", old, err)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatalf("client op failed during reconfiguration: %v", err)
			default:
			}

			n := ChaosServers(kind)
			for _, m := range env.Cluster.View().Members {
				if int(m) < n {
					t.Fatalf("original server %d still in view %v", m, env.Cluster.View().Members)
				}
			}
			if kind != KindNaive {
				if res := Check(hist); !res.OK() {
					t.Fatalf("post-reconfiguration history unsound: %+v", res)
				}
			}
		})
	}
}
