// Command cluegen is the wire-rate cluster harness: a deterministic,
// seeded load generator plus a topology runner that launches a chain or
// mesh of real clued daemons (separate processes, loopback UDP) and
// drives synthetic clue-routed traffic through the full multi-hop
// rewrite path.
//
// With -topo it builds the cluster from a spec (internal/cluster),
// launches one clued -node process per hop, paces stamped packets into
// the head at -pps (token bucket; 0 = as fast as the sockets accept),
// collects deliveries at a sink socket every daemon forwards its
// locally-delivered packets to, and prints end-to-end p50/p99 latency,
// goodput, the e2e latency histogram, and per-hop outcome and error
// tables scraped from each daemon's /metrics endpoint. Destinations are
// zipf-popular flows over the spec's prefix universe, so the same seeds
// replay the same workload packet for packet.
//
// With -check the run becomes a gate: every sent packet must be
// collected and every hop must report zero malformed datagrams and zero
// no-route drops, or the exit status is nonzero (the CI cluster smoke).
//
// With -target host:port (instead of -topo) cluegen only generates:
// stamped traffic is sent to an externally-launched daemon, nothing is
// collected.
//
// Usage:
//
//	cluegen -topo [-shape chain|mesh] [-nodes 3] [-prefixes 2000]
//	        [-clusterseed 1] [-method simple|advance] [-layout auto|flat|compressed]
//	        [-workers 1] [-batchio] [-clued path/to/clued]
//	        [-packets 10000] [-pps 0] [-flows 256] [-zipf 1.2] [-seed 1]
//	        [-seq] [-window 1024] [-timeout 60s] [-check]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/header"
	"repro/internal/ip"
	"repro/internal/mem"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cluegen: ")
	var (
		topo        = flag.Bool("topo", false, "launch a local multi-daemon topology and drive it")
		shape       = flag.String("shape", "chain", "topology shape: chain or mesh")
		nodes       = flag.Int("nodes", 3, "daemon count")
		prefixes    = flag.Int("prefixes", 2000, "prefix universe size")
		clusterSeed = flag.Int64("clusterseed", 1, "universe/topology seed")
		method      = flag.String("method", "simple", "clue method of non-head chain nodes: simple or advance")
		layout      = flag.String("layout", "auto", "fastpath trie layout: auto, flat or compressed")
		workers     = flag.Int("workers", 1, "copies of the forwarding loop per daemon (clued -workers)")
		batchIO     = flag.Bool("batchio", true, "batch socket I/O with sendmmsg/recvmmsg where supported")
		cluedBin    = flag.String("clued", "", "path to a prebuilt clued binary (empty: go build it)")

		packets = flag.Int("packets", 10000, "packets to generate")
		pps     = flag.Int("pps", 0, "paced send rate; 0 sends as fast as the socket accepts")
		flows   = flag.Int("flows", 256, "distinct destination flows")
		zipf    = flag.Float64("zipf", 1.2, "flow destination popularity exponent")
		seed    = flag.Int64("seed", 1, "workload seed (flow destinations)")
		seq     = flag.Bool("seq", false, "lock-step: send each packet after the previous was collected")
		window  = flag.Int("window", 0, "max packets in flight on unpaced runs; 0 = default 1024, negative = unbounded")
		timeout = flag.Duration("timeout", 60*time.Second, "whole-run deadline")
		check   = flag.Bool("check", false, "gate: all packets collected, zero malformed/no-route at every hop")

		target = flag.String("target", "", "send to this UDP address instead of launching a topology (generate-only)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *target != "" {
		if err := blast(ctx, *target, *packets, *pps, *flows, *zipf, *seed, *prefixes, *clusterSeed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if !*topo {
		log.Fatal("nothing to do: pass -topo to launch a topology, or -target to generate at an address")
	}

	m, err := cluster.ParseMethod(*method)
	if err != nil {
		log.Fatal(err)
	}
	l, err := cluster.ParseLayout(*layout)
	if err != nil {
		log.Fatal(err)
	}
	spec := cluster.Spec{
		Shape:    cluster.Shape(*shape),
		Nodes:    *nodes,
		Prefixes: *prefixes,
		Seed:     *clusterSeed,
		Method:   m,
		Layout:   l,
		Workers:  *workers,
		BatchIO:  *batchIO,
	}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	bin := *cluedBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "cluegen-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		fmt.Println("building clued...")
		if bin, err = cluster.BuildDaemon(dir); err != nil {
			log.Fatal(err)
		}
	}

	c, err := cluster.Launch(ctx, bin, spec)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("%s of %d daemons up (head %s, sink %s)\n",
		spec.Shape, spec.Nodes, c.Head().Addr, c.Sink.LocalAddr())
	for _, n := range c.Nodes {
		fmt.Printf("  %s  data %s  metrics http://%s/metrics\n", n.Name, n.Addr, n.Metrics)
	}

	res, err := c.Generate(ctx, cluster.GenConfig{
		Packets: *packets, PPS: *pps, Flows: *flows, ZipfS: *zipf,
		Seed: *seed, Seq: *seq, Window: *window, Timeout: *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	printRun(res)
	failures := printHops(c, res, *check)
	if *check {
		if res.Received != res.Sent {
			log.Printf("check: collected %d of %d packets", res.Received, res.Sent)
			failures++
		}
		if failures > 0 {
			os.Exit(1)
		}
		fmt.Println("check: all packets collected, all hops clean")
	}
}

// printRun prints the generator-side summary and latency histogram.
func printRun(res *cluster.GenResult) {
	fmt.Printf("\nsent %d, collected %d (%.1f%% loss), %.0f pkts/s goodput over %v\n",
		res.Sent, res.Received,
		100*float64(res.Sent-res.Received)/float64(max(res.Sent, 1)),
		res.GoodputPPS, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("e2e latency: p50 %s  p99 %s  (%d reordered)\n",
		time.Duration(res.P50), time.Duration(res.P99), res.Reordered)

	buckets, count, _ := res.Latency.Snapshot()
	if count == 0 {
		return
	}
	bounds := res.Latency.Bounds()
	fmt.Println("\n  latency      packets")
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		label := "+Inf"
		if i < len(bounds) {
			label = fmt.Sprint(time.Duration(bounds[i]))
		}
		fmt.Printf("  <= %-9s %7d\n", label, n)
	}
}

// printHops scrapes every daemon and prints the per-hop tables; it
// returns the number of -check violations (malformed or no-route
// packets at any hop).
func printHops(c *cluster.Cluster, res *cluster.GenResult, check bool) int {
	failures := 0
	tab := mem.NewTable("Router", "Packets", "Refs/packet", "Delivered",
		"Malformed", "No-route", "Send-fail", "Send-drop", "Entries", "Learned")
	labels := core.OutcomeLabels()
	otab := mem.NewTable(append([]string{"Router"}, labels...)...)
	for _, n := range c.Nodes {
		m, err := n.ScrapeMetrics()
		if err != nil {
			log.Printf("scrape %s: %v", n.Name, err)
			failures++
			continue
		}
		pkts := m.Value("clued_refs_per_packet_count", "router", n.Name)
		refs := m.Value("clued_refs_per_packet_sum", "router", n.Name)
		perPkt := 0.0
		if pkts > 0 {
			perPkt = float64(refs) / float64(pkts)
		}
		malformed := m.Value("clued_errors_total", "router", n.Name, "kind", "malformed")
		noRoute := m.Value("clued_errors_total", "router", n.Name, "kind", "no-route")
		if check && malformed+noRoute > 0 {
			failures++
		}
		tab.AddRow(n.Name, fmt.Sprint(pkts), fmt.Sprintf("%.2f", perPkt),
			fmt.Sprint(m.Value("clued_delivered_total", "router", n.Name)),
			fmt.Sprint(malformed), fmt.Sprint(noRoute),
			fmt.Sprint(m.Value("clued_errors_total", "router", n.Name, "kind", "send-fail")),
			fmt.Sprint(m.Value("clued_errors_total", "router", n.Name, "kind", "send-drop")),
			fmt.Sprint(m.Value("clued_table_entries", "router", n.Name)),
			fmt.Sprint(m.Value("clued_learned_entries", "router", n.Name)))
		out := m.Outcomes("clued_packets_total")
		row := make([]string, 0, len(labels)+1)
		row = append(row, n.Name)
		for _, lbl := range labels {
			row = append(row, fmt.Sprint(out[lbl]))
		}
		otab.AddRow(row...)
	}
	fmt.Println()
	fmt.Println(tab.String())
	fmt.Println(otab.String())
	return failures
}

// blast is -target mode: stamped traffic at an external daemon, nothing
// collected (the receiving cluster's own sink sees the deliveries).
func blast(ctx context.Context, target string, packets, pps, flows int, zipfS float64, seed int64, prefixes int, clusterSeed int64) error {
	addr, err := net.ResolveUDPAddr("udp4", target)
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp4", nil, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	spec := cluster.Spec{Shape: cluster.ShapeChain, Nodes: 2, Prefixes: prefixes, Seed: clusterSeed}
	sampler := spec.Universe().DestSampler(seed, zipfS)
	if flows < 1 {
		flows = 1
	}
	dests := make([]ip.Addr, flows)
	for i := range dests {
		dests[i] = sampler.Next()
	}
	start := time.Now()
	epoch := start
	for i := 0; i < packets; i++ {
		if ctx.Err() != nil {
			break
		}
		h := &header.IPv4{
			TTL: 64, Protocol: 17, ID: uint16(i),
			Src: ip.MustParseAddr("10.0.0.1"), Dst: dests[i%flows],
		}
		b, err := h.Marshal(cluster.StampLen)
		if err != nil {
			return err
		}
		b = cluster.AppendStamp(b, uint32(i%flows), uint32(i/flows), time.Since(epoch).Nanoseconds())
		if _, err := conn.Write(b); err != nil {
			return err
		}
		if pps > 0 {
			t := start.Add(time.Duration(float64(i+1) / float64(pps) * float64(time.Second)))
			if d := time.Until(t); d > 0 {
				time.Sleep(d)
			}
		}
	}
	el := time.Since(start)
	fmt.Printf("sent %d packets to %s in %v (%.0f pkts/s)\n",
		packets, target, el.Round(time.Millisecond), float64(packets)/el.Seconds())
	return nil
}
