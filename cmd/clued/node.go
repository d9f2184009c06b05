// Cluster node mode: with -node NAME the daemon runs as exactly one hop
// of a multi-process topology instead of hosting a whole chain. It
// rebuilds its own forwarding table deterministically from the cluster
// spec flags (internal/cluster — every daemon holding the same spec
// derives the same tables, so the launcher ships no table state), binds
// one loopback UDP socket, performs the stdio handshake with the
// launcher, and serves until SIGTERM or stdin EOF:
//
//	stdout: CLUSTER listen=<udp-addr> metrics=<http-addr>
//	stdin:  PEERS c0=addr c1=addr ... sink=addr
//	stdout: READY
//
// Packets the node delivers locally are forwarded unchanged — payload
// stamp included — to the sink peer, which is the generator's collector
// socket; that is how cluegen measures end-to-end latency without any
// clock sync. /metrics, /trace and /entries (the learned clue-table
// dump the differential test diffs against a netsim replay) are served
// for the whole lifetime of the process.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// nodeConfig is one cluster-node run, filled from flags by main.
type nodeConfig struct {
	name        string
	spec        cluster.Spec
	metricsAddr string
	verbose     bool
}

// runNode is node mode's whole lifecycle. It returns the process exit
// code: 0 on a clean SIGTERM/EOF shutdown, 1 on a setup failure.
func runNode(ctx context.Context, cfg nodeConfig) int {
	nc, err := cfg.spec.NodeConfig(cfg.name)
	if err != nil {
		log.Print(err)
		return 1
	}

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewHopTracer(traceCapacity)
	r, err := newRouter(reg, tracer, cfg.name, nc.Table, nc.Config,
		cfg.spec.Layout, cfg.spec.Workers, cfg.spec.BatchIO)
	if err != nil {
		log.Printf("node %s: %v", cfg.name, err)
		return 1
	}
	defer r.conn.Close()
	r.verbose = cfg.verbose

	ln, err := net.Listen("tcp", cfg.metricsAddr)
	if err != nil {
		log.Printf("node %s: metrics listener: %v", cfg.name, err)
		return 1
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = tracer.WriteTail(w, 200)
	})
	mux.HandleFunc("/entries", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, l := range entryLines(r.rcu) {
			fmt.Fprintln(w, l)
		}
	})
	// The blank net/http/pprof import (main.go) registers its handlers on
	// the default mux; exposing them here lets a daemon be profiled
	// mid-benchmark through the same listener the launcher already knows.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	srv := &http.Server{Handler: mux}
	//cluevet:ignore - unblocked by the deferred srv.Close; the daemon exits right after
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	// Handshake: banner out, address book in, READY out. Stdout carries
	// only these lines (logs go to stderr), so the launcher can scan it.
	fmt.Println(cluster.Banner(r.conn.LocalAddr().String(), ln.Addr().String()))
	stdin := bufio.NewReader(os.Stdin)
	line, err := stdin.ReadString('\n')
	if err != nil {
		log.Printf("node %s: reading address book: %v", cfg.name, err)
		return 1
	}
	book, err := cluster.ParsePeers(line)
	if err != nil {
		log.Printf("node %s: %v", cfg.name, err)
		return 1
	}
	r.peers = make(map[string]*peerLink, len(book))
	for name, addrStr := range book {
		addr, err := net.ResolveUDPAddr("udp4", addrStr)
		if err != nil {
			log.Printf("node %s: peer %s addr %q: %v", cfg.name, name, addrStr, err)
			return 1
		}
		pl := &peerLink{name: name, addr: addr}
		if name == cluster.SinkPeer {
			r.sink = pl
			continue
		}
		r.peers[name] = pl
	}

	serveCtx, cancelServe := context.WithCancel(ctx)
	defer cancelServe()
	var wg sync.WaitGroup
	r.start(serveCtx, &wg)

	fmt.Println(cluster.Ready())

	// Serve until the parent context is canceled (SIGTERM/SIGINT via
	// main's NotifyContext) or the launcher goes away (stdin EOF) — the
	// EOF path keeps a crashed launcher from leaking daemons.
	stdinClosed := make(chan struct{})
	//cluevet:ignore - exits at stdin EOF, which also ends the process right below
	go func() {
		for {
			if _, err := stdin.ReadString('\n'); err != nil {
				if err != io.EOF {
					log.Printf("node %s: stdin: %v", cfg.name, err)
				}
				close(stdinClosed)
				return
			}
		}
	}()
	select {
	case <-ctx.Done():
	case <-stdinClosed:
	}
	cancelServe()
	r.unblock()
	wg.Wait()
	log.Printf("node %s: shut down (%d delivered, %d entries learned)",
		cfg.name, r.tel.delivered.Value(), r.rcu.Learned())
	return 0
}
