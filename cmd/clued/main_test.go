package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
)

// testConfig is a small chain that completes quickly even under -race.
func testConfig() config {
	return config{
		routers:    3,
		packets:    40,
		timeout:    20 * time.Second,
		sequential: true, // deterministic learning order, all-delivered guarantee
	}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(context.Background(), cfg)
	if err != nil {
		if strings.Contains(err.Error(), "listen") {
			t.Skipf("cannot open loopback sockets in this environment: %v", err)
		}
		t.Fatal(err)
	}
	if res.delivered != cfg.packets {
		t.Fatalf("delivered %d/%d packets", res.delivered, cfg.packets)
	}
	return res
}

// scrape parses the Prometheus text lines of one family into
// router -> label value -> counter value.
func scrape(body, family, labelKey string) map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64)
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		open := strings.Index(line, "{")
		close := strings.LastIndex(line, "}")
		if open < 0 || close < open {
			continue
		}
		labels := make(map[string]string)
		for _, kv := range strings.Split(line[open+1:close], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			labels[k] = strings.Trim(v, `"`)
		}
		val, err := strconv.ParseUint(strings.TrimSpace(line[close+1:]), 10, 64)
		if err != nil {
			continue
		}
		router := labels["router"]
		if out[router] == nil {
			out[router] = make(map[string]uint64)
		}
		out[router][labels[labelKey]] = val
	}
	return out
}

func get(t *testing.T, url string) (string, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	return string(b), nil
}

// TestMetricsMatchFinalStats is the e2e acceptance gate: the /metrics
// endpoint and the shutdown statistics report are views over the same
// telemetry registry, so a scrape taken after the wire went quiet must
// match the final per-router outcome counters exactly.
func TestMetricsMatchFinalStats(t *testing.T) {
	cfg := testConfig()
	cfg.metricsAddr = "127.0.0.1:0"
	cfg.linger = 10 * time.Second
	addrCh := make(chan string, 1)
	cfg.onMetricsReady = func(addr string) { addrCh <- addr }

	type runOut struct {
		res *result
		err error
	}
	runCh := make(chan runOut, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		res, err := run(ctx, cfg)
		runCh <- runOut{res, err}
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case out := <-runCh:
		if out.err != nil && strings.Contains(out.err.Error(), "listen") {
			t.Skipf("cannot open loopback sockets in this environment: %v", out.err)
		}
		t.Fatalf("run ended before metrics came up: %+v, %v", out.res, out.err)
	case <-time.After(15 * time.Second):
		t.Fatal("metrics endpoint never came up")
	}

	// Poll until the tail router has processed every packet — it is the
	// last hop, so at that point the whole chain has gone quiet and the
	// registry is final (run stops the serve loops before lingering).
	tail := fmt.Sprintf("r%d", cfg.routers-1)
	var body string
	deadline := time.Now().Add(15 * time.Second)
	for {
		b, err := get(t, "http://"+addr+"/metrics")
		if err == nil {
			total := uint64(0)
			for _, v := range scrape(b, "clued_packets_total", "outcome")[tail] {
				total += v
			}
			if total == uint64(cfg.packets) {
				body = b
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail router never reached %d packets (last err: %v)", cfg.packets, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The hop trace endpoint serves the same run.
	trace, err := get(t, "http://"+addr+"/trace")
	if err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if !strings.Contains(trace, "clue=") {
		t.Errorf("/trace has no hop events:\n%s", trace)
	}

	// Unblock the linger window and collect the final report.
	cancel()
	out := <-runCh
	if out.err != nil {
		t.Fatal(out.err)
	}

	// The scraped outcome counters must equal the report, router by
	// router, outcome by outcome — same registry, same numbers.
	outcomes := scrape(body, "clued_packets_total", "outcome")
	labels := core.OutcomeLabels()
	for _, rep := range out.res.routers {
		got := outcomes[rep.name]
		for i, lbl := range labels {
			if got[lbl] != rep.outcomes[i] {
				t.Errorf("router %s outcome %s: scrape %d != final report %d",
					rep.name, lbl, got[lbl], rep.outcomes[i])
			}
		}
		var scrapedTotal uint64
		for _, v := range got {
			scrapedTotal += v
		}
		if scrapedTotal != rep.packets {
			t.Errorf("router %s: scraped packets %d != report %d", rep.name, scrapedTotal, rep.packets)
		}
	}
	// The snapshot memory gauges read the live snapshot at scrape time:
	// every router must expose them, a router that has learned entries
	// has non-empty slot tables, and a chain this small stays on the
	// flat layout. (clued runs the Patricia engine, so the trie index
	// lives in the delegate engine and the snapshot's own index gauge
	// may legitimately read zero.)
	for _, fam := range []string{
		"clued_fastpath_slot_bytes", "clued_fastpath_trie_index_bytes",
		"clued_fastpath_resume_bytes", "clued_fastpath_compressed",
	} {
		vals := scrape(body, fam, "router")
		for _, rep := range out.res.routers {
			v, ok := vals[rep.name][rep.name]
			if !ok {
				t.Errorf("router %s: gauge %s missing from scrape", rep.name, fam)
				continue
			}
			switch fam {
			case "clued_fastpath_slot_bytes":
				if rep.entries > 0 && v == 0 {
					t.Errorf("router %s: %d entries but zero slot bytes", rep.name, rep.entries)
				}
			case "clued_fastpath_compressed":
				if v != 0 {
					t.Errorf("router %s: tiny table reports the compressed layout", rep.name)
				}
			}
		}
	}

	// Every receive batch is observed once, so each router's batch-size
	// histogram holds at least one batch and no more batches than
	// packets.
	batches := scrape(body, "clued_batch_size_count", "router")
	for _, rep := range out.res.routers {
		if n := batches[rep.name][rep.name]; n == 0 || n > rep.packets {
			t.Errorf("router %s: clued_batch_size_count %d, want 1..%d", rep.name, n, rep.packets)
		}
	}

	errs := scrape(body, "clued_errors_total", "kind")
	for _, rep := range out.res.routers {
		for kind, want := range map[string]uint64{
			"malformed": rep.malformed, "no-route": rep.noRoute,
			"expired": rep.expired, "send-fail": rep.sendFail, "send-retry": rep.sendRetry,
		} {
			if errs[rep.name][kind] != want {
				t.Errorf("router %s error %s: scrape %d != report %d",
					rep.name, kind, errs[rep.name][kind], want)
			}
		}
	}
}

// TestWorkersDeliverAll pushes a concurrent (non-sequential) workload
// through routers running one and four copies of the forwarding loop:
// every packet must still be delivered, every router must process every
// packet exactly once, the per-worker counters must sum to the router
// totals, and the four-copy run must learn the same clue entries as the
// one-copy run (learning is set-convergent regardless of handling
// order).
func TestWorkersDeliverAll(t *testing.T) {
	cfg := testConfig()
	cfg.sequential = false
	cfg.packets = 120

	var runs []*result
	for _, workers := range []int{1, 4} {
		cfg.workers = workers
		res := mustRun(t, cfg)
		for _, rep := range res.routers {
			if rep.packets != uint64(cfg.packets) {
				t.Errorf("workers=%d: router %s processed %d packets, want %d",
					workers, rep.name, rep.packets, cfg.packets)
			}
			if rep.workerPackets != rep.packets {
				t.Errorf("workers=%d: router %s per-worker packets sum to %d, router total %d",
					workers, rep.name, rep.workerPackets, rep.packets)
			}
			if drops := rep.malformed + rep.noRoute + rep.expired; rep.workerErrors != drops {
				t.Errorf("workers=%d: router %s per-worker errors sum to %d, router drops %d",
					workers, rep.name, rep.workerErrors, drops)
			}
		}
		runs = append(runs, res)
	}
	for i := range runs[0].routers {
		s, p := runs[0].routers[i], runs[1].routers[i]
		if s.entries != p.entries || s.learned != p.learned {
			t.Errorf("router %s: one loop learned %d/%d entries, four loops %d/%d",
				s.name, s.learned, s.entries, p.learned, p.entries)
		}
	}
}

// TestChainMatchesNetsim is the oracle for the -routers chain: the same
// sequential destinations pushed through the UDP daemon and through
// netsim over the identical newChain tables must agree router by
// router — packets, memory references, outcome counts and the learned
// clue entries. netsim runs the interpreted core tables with the same
// Simple method and Patricia engine the chain configures, so references
// must match exactly too: the compiled snapshots charge what the
// interpreted tables charge (the fastpath differential suite pins that).
func TestChainMatchesNetsim(t *testing.T) {
	cfg := testConfig()
	res := mustRun(t, cfg)

	ch, err := newChain(cfg.routers, false)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(ch.tables)
	for _, name := range ch.names {
		sim.Router(name).SetMethod(core.Simple)
	}
	for i := 0; i < cfg.packets; i++ {
		tr, err := sim.Send(ch.names[0], ch.dest(i))
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Delivered {
			t.Fatalf("netsim dropped packet %d (%v): %v", i, ch.dest(i), tr.Drop)
		}
	}

	if len(res.routers) != len(ch.names) {
		t.Fatalf("daemon reported %d routers, chain has %d", len(res.routers), len(ch.names))
	}
	labels := core.OutcomeLabels()
	for i, rep := range res.routers {
		if rep.name != ch.names[i] {
			t.Fatalf("router order differs: %s vs %s", rep.name, ch.names[i])
		}
		r := sim.Router(rep.name)
		st := r.Stats()
		if rep.packets != uint64(st.Packets) || rep.refs != uint64(st.Refs) {
			t.Errorf("router %s: %d packets / %d refs on the wire, %d / %d in netsim",
				rep.name, rep.packets, rep.refs, st.Packets, st.Refs)
		}
		simOut := r.Outcomes()
		for o, lbl := range labels {
			if want := uint64(simOut[core.Outcome(o)]); rep.outcomes[o] != want {
				t.Errorf("router %s outcome %s: %d on the wire, %d in netsim",
					rep.name, lbl, rep.outcomes[o], want)
			}
		}
		// The daemon's one table corresponds to netsim's table for this
		// router's chain upstream ("" at the head).
		upstream := ""
		if i > 0 {
			upstream = ch.names[i-1]
		}
		var simLines []string
		for _, e := range r.ExportClues(upstream) {
			simLines = append(simLines, cluster.EntryLine(e))
		}
		sort.Strings(simLines)
		if strings.Join(rep.clues, "\n") != strings.Join(simLines, "\n") {
			t.Errorf("router %s: learned entries differ\nwire:   %v\nnetsim: %v",
				rep.name, rep.clues, simLines)
		}
	}
}
