// Command cluebench regenerates the tables of the paper's evaluation (§6):
//
//	Table 1   — total prefixes per router snapshot
//	Table 2   — problematic clues (Claim 1 fails) per ordered pair
//	Table 3   — pairwise prefix-set intersections
//	Tables 4–9 — average memory references for 10,000 packets under the 15
//	            schemes ({Common, Simple, Advance} × {Regular, Patricia,
//	            Binary, 6-way, Log W}), one table per router pair
//
// Snapshots are synthetic counterparts of the paper's 1999 routers (see
// internal/synth and DESIGN.md §5); use -snapshots to run on saved
// snapshot files from routegen instead.
//
// Usage:
//
//	cluebench [-table all|1|2|3|4|5|6|7|8|9] [-packets 10000]
//	          [-scale 1.0] [-seed 1999] [-snapshots dir]
//	          [-json] [-churn]
//
// -churn replays bursty BGP-shaped update streams into a live
// fastpath.RCU while forwarding goroutines run packets (internal/churn)
// and writes the updates/sec × burst-shape sweep to BENCH_churn.json.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fib"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cluebench: ")
	var (
		table     = flag.String("table", "all", "which table to regenerate: all, or 1..9")
		packets   = flag.Int("packets", 10000, "packets per router pair (the paper uses 10,000)")
		scale     = flag.Float64("scale", 1.0, "snapshot scale in (0,1]; 1.0 = the paper's table sizes")
		seed      = flag.Int64("seed", 1999, "generator seed")
		snapshots = flag.String("snapshots", "", "directory of saved snapshots (from routegen) to use instead of generating")
		detail    = flag.Bool("detail", false, "also print the Advance distribution (1-reference share, worst case) per pair")
		hardware  = flag.Bool("hardware", false, "translate each pair's results to 1999 hardware terms (Mlookups/s, Gbit/s)")
		jsonBench = flag.Bool("json", false, "run the wall-clock fastpath benchmarks and write BENCH_fastpath.json instead of the paper tables")
		churnSwp  = flag.Bool("churn", false, "run the BGP churn replay sweep (updates/sec × burst shape) and write BENCH_churn.json instead of the paper tables")
		scaleSwp  = flag.String("scalebench", "", "comma-separated IPv4 prefix counts (e.g. 100000,1000000): run the modern-scale flat-vs-compressed sweep and write BENCH_scale.json instead of the paper tables")
		scaleV6   = flag.String("scalev6", "", "comma-separated IPv6 prefix counts for -scalebench (empty = IPv4 only)")
		clusterL  = flag.String("cluster", "", "comma-separated chain lengths (e.g. 2,3,5): run the multi-process cluster sweep over loopback UDP and write BENCH_cluster.json instead of the paper tables")
	)
	flag.Parse()

	if *clusterL != "" {
		lengths, err := parseCountList("-cluster", *clusterL)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range lengths {
			if n < 2 {
				log.Fatalf("-cluster: chain length %d: need at least 2 nodes", n)
			}
		}
		if err := runClusterBench("BENCH_cluster.json", *seed, lengths); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *scaleSwp != "" {
		v4, err := parseCountList("-scalebench", *scaleSwp)
		if err != nil {
			log.Fatal(err)
		}
		v6, err := parseCountList("-scalev6", *scaleV6)
		if err != nil {
			log.Fatal(err)
		}
		if err := runScaleBench("BENCH_scale.json", *seed, v4, v6); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *churnSwp {
		if err := runChurnBench("BENCH_churn.json", *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	routers, err := loadRouters(*snapshots, *seed, *scale)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonBench {
		if err := runJSONBench("BENCH_fastpath.json", routers, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	want := func(n int) bool { return *table == "all" || *table == strconv.Itoa(n) }

	if want(1) {
		printTable1(routers)
	}
	if want(2) {
		printTable2(routers)
	}
	if want(3) {
		printTable3(routers)
	}
	// The six pair experiments are independent: run them concurrently and
	// print in table order.
	type slot struct {
		no  int
		rep *experiment.PairReport
	}
	results := make([]*slot, len(experiment.PaperPairs))
	var wg sync.WaitGroup
	for i, pair := range experiment.PaperPairs {
		no := 4 + i
		if !want(no) {
			continue
		}
		wg.Add(1)
		go func(i, no int, pair [2]string) {
			defer wg.Done()
			results[i] = &slot{no: no, rep: experiment.RunPair(routers[pair[0]], routers[pair[1]], *packets, *seed)}
		}(i, no, pair)
	}
	wg.Wait()
	var reports []*experiment.PairReport
	for _, s := range results {
		if s == nil {
			continue
		}
		rep := s.rep
		reports = append(reports, rep)
		fmt.Printf("Table %d — %s\n", s.no, rep.FormatTable())
		if *detail {
			fmt.Println(rep.FormatDetail())
		}
		if *hardware {
			h := perfmodel.SDRAM1999()
			fmt.Println(h.Translate([]perfmodel.Scheme{
				{Name: "Common Regular", Refs: rep.Mean("Common", "Regular")},
				{Name: "Common Log W", Refs: rep.Mean("Common", "Log W")},
				{Name: "Simple+Patricia", Refs: rep.Mean("Simple", "Patricia")},
				{Name: "Advance+Patricia", Refs: rep.Mean("Advance", "Patricia")},
			}))
		}
	}
	if len(reports) > 1 {
		fmt.Println("Summary — avg memory references per packet")
		fmt.Println(experiment.SummaryTable(reports))
	}
}

func loadRouters(dir string, seed int64, scale float64) (map[string]*fib.Table, error) {
	if dir == "" {
		if scale <= 0 || scale > 1 {
			return nil, fmt.Errorf("-scale %v outside (0,1]", scale)
		}
		return synth.PaperRouters(seed, scale), nil
	}
	routers := make(map[string]*fib.Table)
	for _, name := range synth.PaperRouterNames {
		path := filepath.Join(dir, snapshotFile(name))
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open snapshot: %w", err)
		}
		tab, err := fib.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		routers[tab.Name()] = tab
	}
	return routers, nil
}

// snapshotFile maps a router name to its snapshot filename (shared
// convention with cmd/routegen).
func snapshotFile(router string) string {
	out := make([]byte, 0, len(router))
	for i := 0; i < len(router); i++ {
		c := router[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c-'A'+'a')
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		}
	}
	return string(out) + ".routes"
}

func printTable1(routers map[string]*fib.Table) {
	tab := mem.NewTable("Router", "Prefixes")
	for _, name := range synth.PaperRouterNames {
		tab.AddRow(name, strconv.Itoa(routers[name].Len()))
	}
	fmt.Println("Table 1 — total prefixes per table")
	fmt.Println(tab.String())
}

func printTable2(routers map[string]*fib.Table) {
	pairs := [][2]string{
		{"MAE-East", "MAE-West"}, {"MAE-East", "Paix"}, {"Paix", "MAE-East"},
		{"AT&T-1", "AT&T-2"}, {"AT&T-2", "AT&T-1"},
		{"ISP-B-1", "ISP-B-2"}, {"ISP-B-2", "ISP-B-1"},
	}
	tab := mem.NewTable("Sender", "Receiver", "Problematic clues", "Clues", "Fraction")
	for _, p := range pairs {
		st := routers[p[0]].Trie()
		rt := routers[p[1]].Trie()
		clues := routers[p[0]].Prefixes()
		bad := core.CountProblematic(rt, clues, st.Contains)
		tab.AddRow(p[0], p[1], strconv.Itoa(bad), strconv.Itoa(len(clues)),
			fmt.Sprintf("%.2f%%", 100*float64(bad)/float64(len(clues))))
	}
	fmt.Println("Table 2 — clues for which Claim 1 does not hold at the receiver")
	fmt.Println(tab.String())
}

func printTable3(routers map[string]*fib.Table) {
	pairs := [][2]string{
		{"MAE-East", "MAE-West"}, {"MAE-East", "Paix"}, {"MAE-West", "Paix"},
		{"AT&T-1", "AT&T-2"}, {"ISP-B-1", "ISP-B-2"},
	}
	tab := mem.NewTable("Router A", "Router B", "Intersection")
	for _, p := range pairs {
		tab.AddRow(p[0], p[1], strconv.Itoa(fib.Intersection(routers[p[0]], routers[p[1]])))
	}
	fmt.Println("Table 3 — prefixes of one router that also appear in the other")
	fmt.Println(tab.String())
}
