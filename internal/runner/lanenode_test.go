package runner

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/spec"
	"repro/internal/types"
)

// lanenodeBin builds cmd/lanenode once per test binary and returns its
// path. The TCP chaos suite runs against real node processes, so killing
// one is a genuine server crash.
var lanenodeBin = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "lanenode-bin")
	if err != nil {
		return "", err
	}
	exe := filepath.Join(dir, "lanenode")
	cmd := exec.Command("go", "build", "-o", exe, "repro/cmd/lanenode")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lanenode: %v\n%s", err, out)
	}
	return exe, nil
})

// startLanenodes spawns n lanenode processes on ephemeral ports, parses
// their bound addresses, and registers cleanup kills. The returned
// commands let tests kill individual nodes mid-run.
func startLanenodes(t *testing.T, n int) ([]string, []*exec.Cmd) {
	t.Helper()
	exe, err := lanenodeBin()
	if err != nil {
		t.Skipf("cannot build lanenode in this environment: %v", err)
	}
	addrs := make([]string, n)
	cmds := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-listen", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting lanenode %d: %v", i, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			t.Fatalf("lanenode %d banner: %v", i, err)
		}
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
		if !ok {
			t.Fatalf("lanenode %d banner = %q", i, line)
		}
		addrs[i] = addr
		cmds[i] = cmd
	}
	return addrs, cmds
}

// TestTCPLaneChaosEndToEnd runs the chaos suite — seeded holds, random
// releases, write-sequential checkers — with every low-level operation
// travelling over TCP to real cmd/lanenode processes, then additionally
// demands the history linearizes (the chaos driver is sequential at the
// high level, so WS-correct runs must also linearize). One fresh set of
// node processes per run: object ids restart at zero per environment.
func TestTCPLaneChaosEndToEnd(t *testing.T) {
	ctx := testCtx(t)
	for _, kind := range []Kind{KindRegEmu, KindABDMax, KindCASMax} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			n := ChaosServers(kind)
			for seed := int64(0); seed < 2; seed++ {
				addrs, _ := startLanenodes(t, n)
				maker, _, err := lanenet.Lanes(addrs, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := RunChaos(ctx, ChaosConfig{
					Kind: kind, K: 3, F: 2, N: n, Ops: 15,
					Seed: seed, LaneMaker: maker,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !rep.Checks.OK() {
					t.Fatalf("seed %d: WS checks failed over TCP: %+v", seed, rep.Checks)
				}
				if err := spec.CheckLinearizable(rep.History.Snapshot(), types.InitialValue); err != nil {
					t.Fatalf("seed %d: history not linearizable over TCP: %v", seed, err)
				}
				if rep.Writes+rep.Reads != 15 {
					t.Fatalf("seed %d: ops = %d, want 15", seed, rep.Writes+rep.Reads)
				}
			}
		})
	}
}

// TestTCPLaneNodeKillIsCrash kills one node process mid-run: the fabric
// must absorb it as a server crash (f=2 tolerates it) and the remaining
// nodes must still serve every quorum; the checkers must keep holding.
func TestTCPLaneNodeKillIsCrash(t *testing.T) {
	ctx := testCtx(t)
	const n = 5
	addrs, cmds := startLanenodes(t, n)
	maker, _, err := lanenet.Lanes(addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(n, nil, fabric.WithLanes(maker))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Fabric.Close()
	reg, hist, err := BuildWith(KindABDMax, env.Fabric, 2, 2, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Write(ctx, types.Value(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Kill server 0's node process: its lane observes the broken
	// connection and crashes the server.
	if err := cmds[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for env.Cluster.Crashes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("severed transport never crashed the server")
		}
		time.Sleep(time.Millisecond)
	}
	// Quorums (n-f = 3 of 5) still complete without server 0.
	for i := 6; i <= 10; i++ {
		if err := w.Write(ctx, types.Value(i)); err != nil {
			t.Fatalf("write %d after crash: %v", i, err)
		}
	}
	if v, err := reg.NewReader().Read(ctx); err != nil || v != 10 {
		t.Fatalf("read = %d, %v; want 10", v, err)
	}
	if c := Check(hist); !c.OK() {
		t.Fatalf("checks after node kill: %+v", c)
	}
}
