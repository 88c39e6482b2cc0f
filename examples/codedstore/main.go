// Codedstore: the space side of the paper over a real wire. Five storage
// nodes serve fragment stores over TCP; a coded register (n=5, f=1,
// kData=3) stripes each 64 KiB value into five timestamped fragments, one
// per node, where the replicated constructions would put a full copy on
// 2f+1 = 3 of the servers. Mid-run one node is killed — its connections drop, the
// lane crashes (reconnect-as-crash), and an in-flight write still
// completes on the surviving 4/5 quorum because any 3 fragments
// reconstruct. The run ends by reading the value back through the torn
// membership and printing what each node actually stores: ~a third of the
// value, against the full copy each of replication's 2f+1 replicas holds —
// 1.8x less over the cluster.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/emulation"
	"repro/internal/emulation/coded"
	"repro/internal/fabric"
	"repro/internal/lanenet"
	"repro/internal/runner"
)

const (
	servers   = 5
	faults    = 1
	valueSize = 64 << 10 // 64 KiB per written value
)

// storageNode is one in-process lanenet node with its listener: the same
// protocol and state machine as a cmd/lanenode process, minus the fork.
type storageNode struct {
	node *lanenet.Node
	lis  net.Listener
}

// kill drops the node the hard way a failure would: the listener stops
// accepting and every serving connection closes. Peers see the drop and
// crash the lane — the node never comes back.
func (s *storageNode) kill() {
	_ = s.lis.Close()
	s.node.Drain()
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Five storage nodes on real TCP listeners.
	nodes := make([]*storageNode, servers)
	addrs := make([]string, servers)
	for i := range nodes {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		n := lanenet.NewNode()
		go func() { _ = n.Serve(lis) }()
		nodes[i] = &storageNode{node: n, lis: lis}
		addrs[i] = lis.Addr().String()
	}
	fmt.Printf("%d storage nodes up; striping %d KiB values %d-of-%d (f=%d)\n",
		servers, valueSize>>10, servers-2*faults, servers, faults)

	// One fabric over the node pool, one coded register on top.
	maker, clients, err := lanenet.Lanes(addrs, 5*time.Second)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	env, err := runner.NewEnv(servers, nil, fabric.WithLanes(maker))
	if err != nil {
		log.Fatalf("env: %v", err)
	}
	defer env.Fabric.Close()
	env.Cluster.SetF(faults)
	reg, err := coded.New(env.Fabric, 1, emulation.Options{ValueSize: valueSize})
	if err != nil {
		log.Fatalf("coded: %v", err)
	}

	w, err := reg.Writer(0)
	if err != nil {
		log.Fatalf("writer: %v", err)
	}
	rd := reg.NewReader()
	if err := w.Write(ctx, 1); err != nil {
		log.Fatalf("first write: %v", err)
	}
	fmt.Println("wrote value 1: one fragment per node, commit at 4/5")

	// Kill one node while the next write's fragments are in flight. The
	// write needs n-f=4 fragment acks and any reader needs kData=3
	// fragments, so losing a node mid-stripe costs nothing but its share.
	done := make(chan error, 1)
	w.StartWrite(ctx, 2, func(err error) { done <- err })
	nodes[4].kill()
	fmt.Println("killed node 4 mid-write (connections dropped, lane crashed)")
	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("write during kill: %v", err)
		}
	case <-ctx.Done():
		log.Fatalf("write during kill never completed: %v", ctx.Err())
	}
	fmt.Println("wrote value 2 on the surviving 4/5 quorum")

	v, err := rd.Read(ctx)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	if v != 2 {
		log.Fatalf("read %d, want 2", v)
	}
	fmt.Println("read back value 2: reconstructed from 3 of the surviving fragments")

	// The space axis, from the nodes' own counters: each live node holds
	// one ceil(size/kData) fragment of the latest stripe, where each of
	// replication's 2f+1 replicas would hold the full value (the replicated
	// constructions place their stores on the first 2f+1 members only).
	var total int64
	for i, s := range nodes {
		b := s.node.BytesStored()
		total += b
		status := "alive"
		if i == 4 {
			status = "killed"
		}
		replica := 0
		if i < 2*faults+1 {
			replica = valueSize
		}
		fmt.Printf("node %d (%s): %6d bytes stored (replicated: %d)\n",
			i, status, b, replica)
	}
	replicated := int64((2*faults + 1) * valueSize)
	fmt.Printf("cluster total: %d bytes vs %d replicated — %.1fx less for the same f=%d\n",
		total, replicated, float64(replicated)/float64(total), faults)
}
