package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the harness builds or writes by default. It is
// relative to the working directory (the checkout root) and git-ignored.
const buildDir = ".bench_build"

// buildLanenode compiles cmd/lanenode from the checkout's source into
// buildDir and returns the binary's path. Build time is not part of any
// metric.
func buildLanenode(ctx context.Context) (string, error) {
	bin := filepath.Join(buildDir, "lanenode")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/lanenode")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/lanenode: %w\n%s", err, out)
	}
	return bin, nil
}

// node is one running cmd/lanenode process.
type node struct {
	cmd  *exec.Cmd
	addr string
}

// nodeSet is a pass's storage-node processes. Every pass spawns a fresh set
// and stops it — on success, error, signal or timeout alike.
type nodeSet struct {
	nodes []*node
}

// listenTimeout bounds the wait for a node's "listening <addr>" line.
const listenTimeout = 10 * time.Second

// spawnNodes starts count nodes on ephemeral loopback ports. On any failure
// the nodes already started are stopped and the error is returned: a port or
// spawn problem fails the workload instead of letting it report zeros.
func spawnNodes(ctx context.Context, bin string, count int) (*nodeSet, error) {
	ns := &nodeSet{}
	for i := 0; i < count; i++ {
		n, err := spawnNode(ctx, bin)
		if err != nil {
			ns.stop()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		ns.nodes = append(ns.nodes, n)
	}
	return ns, nil
}

func spawnNode(ctx context.Context, bin string) (*node, error) {
	// CommandContext kills the child when ctx is cancelled (signal, global
	// timeout); Pdeathsig covers the harness itself being SIGKILLed.
	cmd := exec.CommandContext(ctx, bin, "-listen", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	n := &node{cmd: cmd}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			line <- sc.Text()
		} else {
			line <- ""
		}
		for sc.Scan() { // drain so the child never blocks on a full pipe
		}
	}()
	select {
	case l := <-line:
		addr, ok := strings.CutPrefix(l, "listening ")
		if !ok || addr == "" {
			n.stop()
			return nil, fmt.Errorf("expected \"listening <addr>\", got %q", l)
		}
		n.addr = addr
		return n, nil
	case <-time.After(listenTimeout):
		n.stop()
		return nil, errors.New("no listening line within " + listenTimeout.String())
	case <-ctx.Done():
		n.stop()
		return nil, ctx.Err()
	}
}

// stop kills the process and waits until it has ended.
func (n *node) stop() {
	_ = n.cmd.Process.Kill()
	_ = n.cmd.Wait()
}

func (ns *nodeSet) stop() {
	if ns == nil {
		return
	}
	for _, n := range ns.nodes {
		n.stop()
	}
	ns.nodes = nil
}

func (ns *nodeSet) addrs() []string {
	out := make([]string, len(ns.nodes))
	for i, n := range ns.nodes {
		out[i] = n.addr
	}
	return out
}

// cpu sums the nodes' user+system CPU time from /proc/<pid>/stat.
func (ns *nodeSet) cpu() (time.Duration, error) {
	if ns == nil {
		return 0, nil
	}
	var total time.Duration
	for _, n := range ns.nodes {
		d, err := procCPU(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime; it
// has been 100 on every Linux ABI Go supports.
const clockTick = 100

func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may itself contain
	// spaces: state is field 3, utime 14, stime 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields %q %q", pid, f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
