// Command lanenode runs a storage-node process: the remote half of a
// network-backed fabric dispatch lane (internal/lanenet). A node hosts any
// number of named object tables over one listener — a connection operates
// on the default table until it binds another (lanenet.WithTable) — so one
// process can serve several shards of a sharded store
// (internal/shardstore), each shard's fabric bound to its own table and
// free of object-id collisions with the others.
//
// The process is one fault domain: killing it (SIGKILL) is the paper's
// server crash for every shard with a table here, and the fabric maps the
// broken connections onto PhaseDropped via its reconnect-as-crash
// semantics. SIGINT/SIGTERM instead trigger a graceful drain — stop
// accepting, finish the frames already decoded, flush responses, close the
// listener and every connection — so a test (or an operator's rolling
// restart) can distinguish a clean *leave* from a crash: a drained node
// prints "draining" then "drained" and exits 0.
//
// Usage:
//
//	lanenode -listen 127.0.0.1:0
//
// The first stdout line reports the bound address ("listening <addr>"),
// which is how test harnesses discover ephemeral ports.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/lanenet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lanenode:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:0", "TCP address to listen on (port 0 picks an ephemeral port)")
	flag.Parse()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", l.Addr())
	node := lanenet.NewNode()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Printf("draining (%v)\n", sig)
		// Closing the listener makes Serve return nil (no new
		// connections); Drain then finishes in-flight decodes, flushes
		// responses, and closes every connection.
		l.Close()
	}()

	if err := node.Serve(l); err != nil {
		return err
	}
	node.Drain()
	fmt.Println("drained")
	return nil
}
