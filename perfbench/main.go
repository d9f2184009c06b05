// Command perfbench is the repository's benchmark: one command that
// measures clue routing end to end and layer by layer, checks the
// outputs, and prints one JSON result line.
//
//	perfbench -clued <clued binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Two workloads stress two different layers:
//
//   - hop-1m: one hop's packet path in-process (PeekIPv4 → ProcessBatch →
//     RewriteClueIPv4) over a 1M-prefix Simple table and ~1M
//     destinations; the lookup layout and its cache misses dominate.
//   - churn-100k: a closed-loop RCU.Apply writer beside a paced
//     ProcessBatch reader on a 100k-prefix Advance+Verify table, which
//     stays in the host's caches.
//
// Every run reports every end-to-end metric, so each workload times both
// stages over its own table, each for the run's length: first the hop,
// then the churn. With --trace 1 the
// run also drives a 3-node clued chain over loopback UDP (the wire
// stage), alternates untraced and traced intervals, records spans
// around every layer call, prints the per-layer metrics and writes the
// spans to the -out directory.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// plan is one workload. Both build a pair, time the static hop over it
// and then the churn on it; they differ in the table size, the clue
// method and in which window their runtime.* figures cover.
type plan struct {
	primary   string // "hop" or "churn"
	prefixes  int
	advance   bool // Advance with sender verification; Simple otherwise
	eventRate int  // the churn writer applies this many events per second of the run's length
}

// bigPrefixes is hop-1m's table size; churn-100k's is a tenth of it.
const bigPrefixes = 1_000_000

// plans sizes every workload from the given table size (bigPrefixes,
// except in the smoke test). The churn writer's work is a number of
// events, not a time: a faster host would otherwise apply more events
// and reach a more fragmented table, which costs each event more. The
// event rates make the writer's window about --seconds long on the
// benchmark's host.
func plans(prefixes int) map[string]plan {
	return map[string]plan{
		"hop-1m":     {primary: "hop", prefixes: prefixes, eventRate: 400},
		"churn-100k": {primary: "churn", prefixes: prefixes / 10, advance: true, eventRate: 700},
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// info is printed just before the result: how the run was made and how
// many samples stand behind each figure.
type info struct {
	Fingerprint map[string]any     `json:"fingerprint"`
	Samples     map[string]int     `json:"samples"`
	Spreads     map[string]float64 `json:"call_spreads"`
	Unscaled    map[string]float64 `json:"unscaled"`
	Probe       map[string]float64 `json:"probe_rate"`
	Flags       []string           `json:"flags,omitempty"`
	Moves       map[string]string  `json:"moves,omitempty"`
	Trace       string             `json:"trace,omitempty"`
	Dropped     int                `json:"dropped_spans,omitempty"`
}

func main() {
	if err := run(os.Args[1:], bigPrefixes, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run is the whole command; big sizes the workloads' tables.
func run(args []string, big int, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "hop-1m or churn-100k")
	seed := fl.Int64("seed", 1, "workload seed: every input is drawn from it")
	seconds := fl.Int("seconds", 15, "length of each measured window: the hop's, then the churn's")
	traced := fl.Int("trace", 0, "1: per-layer run with spans; 0: end-to-end run")
	clued := fl.String("clued", "", "clued binary for the wire stage")
	out := fl.String("out", "", "directory the traced run writes its spans to")
	root := fl.String("root", ".", "checkout root, fingerprinted by a digest of its sources")
	commit := fl.String("commit", "none", "commit the checkout was made from, when known")
	if err := fl.Parse(args); err != nil {
		return err
	}
	pl, ok := plans(big)[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *clued == "" {
		return errors.New("-clued is required")
	}
	var tr *tracer
	var traceEvery time.Duration
	if *traced == 1 {
		tr = &tracer{}
		traceEvery = 250 * time.Millisecond
	}

	rep := newReport()
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	// The wire stage feeds only per-layer figures, so only traced runs
	// pay for it. It goes first, before the big tables grow the heap.
	if tr != nil {
		w, err := runWire(ctx, *clued, *seed, tr)
		if err != nil {
			return fmt.Errorf("wire stage: %w", err)
		}
		rep.wire(w)
	}

	c, err := runPair(*seed, pl, time.Duration(*seconds)*time.Second, traceEvery, tr)
	if err != nil {
		return err
	}
	rep.hop(c.hop, pl.primary == "hop")
	rep.churnStage(c, pl.primary == "churn")

	defs := endToEnd
	if tr != nil {
		defs = perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	src := rep.e2e
	if tr != nil {
		src = rep.layer
	}
	for _, d := range defs {
		v, ok := src[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	in := info{
		Fingerprint: fingerprint(*root, *commit, *workload, *seed, *seconds, *traced),
		Samples:     rep.samples,
		Spreads:     rep.spreads,
		Unscaled:    rep.unscaled,
		Probe:       rep.probe,
		Flags:       rep.flags,
	}
	if tr != nil {
		in.Moves = map[string]string{}
		for _, d := range perLayer {
			in.Moves[d.name] = d.moves
		}
		in.Dropped = tr.dropped()
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			in.Trace = filepath.Join(*out, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
			if err := tr.write(in.Trace); err != nil {
				return err
			}
		}
	}
	for _, f := range rep.flags {
		fmt.Fprintln(os.Stderr, "perfbench: flag:", f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(in); err != nil {
		return err
	}
	return enc.Encode(res)
}

// report accumulates the figures of every stage of one run.
type report struct {
	e2e, layer        map[string]float64
	samples           map[string]int
	spreads           map[string]float64 // within the run: IQR/median of per-call rates
	unscaled, probe   map[string]float64 // throughputs as timed, and the probe's median rate beside them
	flags             []string
	attempted, failed int64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{},
		samples: map[string]int{}, spreads: map[string]float64{},
		unscaled: map[string]float64{}, probe: map[string]float64{}}
}

func (r *report) wire(w *wireResult) {
	r.count("wire", w.sent, w.failed)
	r.layer["wire.goodput_pps"] = w.goodput
	r.samples["wire.goodput_pps"] = w.rounds
	for _, x := range []struct {
		phase int
		name  string
	}{{phaseLow, "40k"}, {phaseHigh, "80k"}} {
		r.layer["wire.p50_us_"+x.name] = w.p50[x.phase]
		r.layer["wire.p99_us_"+x.name] = w.p99[x.phase]
		r.samples["wire.p50_us_"+x.name] = w.packets[x.phase]
		r.samples["wire.p99_us_"+x.name] = w.packets[x.phase]
		if per := w.packets[x.phase] / max(1, w.rounds); !supported(per, 99) {
			r.flags = append(r.flags, fmt.Sprintf("wire.p99_us_%s: a round holds %d packets, fewer than ten beyond p99", x.name, per))
		}
	}
	r.flags = append(r.flags, w.behind...)
	r.layer["cluster.launch_s"] = median(w.launch)
	r.samples["cluster.launch_s"] = len(w.launch)
	r.layer["batchio.send_ns_per_pkt"] = w.sendNsPerPkt
	r.layer["batchio.recv_pkts_per_call"] = w.recvPerCall
	r.layer["clued.cpu_us_per_pkt"] = w.cpuUs
	r.layer["clued.sys_share"] = w.sysShare
	r.layer["clued.csw_per_pkt"] = w.csw
	r.layer["clued.refs_per_pkt.c1"] = w.refsC1
	r.layer["clued.fd_share.c1"] = w.fdShareC1
	r.layer["gen.late_us_p99"] = w.lateP99
}

func (r *report) hop(h *hopStage, primary bool) {
	r.count("hop", h.attempted, h.failed)
	if primary {
		r.runtime(h.run.allocs, float64(h.run.frames))
	}
	r.rate("hop_pps", h.run.pps, h.run.pps.scaled(), h.run.pps.fast())
	r.e2e["refs_per_packet"] = h.refs
	r.e2e["snapshot_mib"] = float64(h.mem.TotalBytes()) / (1 << 20)
	if t := float64(h.run.traced); t > 0 {
		r.layer["header.peek_ns_per_pkt"] = float64(h.run.peekNs) / t
		r.layer["fastpath.lookup_ns_per_pkt"] = float64(h.run.lookupNs) / t
		r.layer["header.rewrite_ns_per_pkt"] = float64(h.run.rewriteNs) / t
		for i, o := range core.OutcomeLabels() {
			r.layer["fastpath.outcome_share."+o] = float64(h.run.outcomes[i]) / t
		}
	}
	r.layer["fastpath.trie_bytes"] = float64(h.mem.LocalTrieBytes + h.mem.SenderTrieBytes)
	r.layer["fastpath.slot_bytes"] = float64(h.mem.SlotBytes)
	r.layer["fastpath.dict_bytes"] = float64(h.mem.DictBytes)
	r.layer["trace.overhead_hop_pps"] = h.run.tracedPPS.fast() - h.run.pps.fast()
}

func (r *report) churnStage(c *pairResult, primary bool) {
	r.count("churn", c.ops+c.sweep, c.mismatches)
	var totals, gen, pre, compile []float64
	for _, s := range c.setup {
		totals = append(totals, s.total())
		gen = append(gen, s.gen)
		pre = append(pre, s.pre)
		compile = append(compile, s.compile)
	}
	r.e2e["setup_s"] = median(totals)
	r.samples["setup_s"] = len(totals)
	r.layer["synth.gen_s"] = median(gen)
	r.layer["core.preprocess_s"] = median(pre)
	r.layer["fastpath.compile_s"] = median(compile)
	if primary {
		r.runtime(c.runtime, float64(c.ops))
	}
	// Events differ in size, so the writer's rate is over all of its
	// events; the reader's batches are alike, so its rate is the fast
	// percentile of its batches, as the hop's is. Each is scaled by the
	// probe that follows it (see speed.go).
	untraced := c.write.overall()
	r.rate("churn_ops_per_s", c.write, c.write.scaledTotal(), untraced)
	r.rate("churn_read_pps", c.read, c.read.scaled(), c.read.fast())
	lat := c.write.scaledMs()
	r.e2e["churn_update_p50_ms"] = percentile(lat, 50)
	r.e2e["churn_update_p99_ms"] = percentile(lat, 99)
	r.samples["churn_update_p50_ms"] = len(lat)
	r.samples["churn_update_p99_ms"] = len(lat)
	if !supported(len(lat), 99) {
		r.flags = append(r.flags, fmt.Sprintf("churn_update_p99_ms rests on %d events: fewer than ten beyond p99", len(lat)))
	}
	if c.tracedOps > 0 {
		r.layer["fastpath.apply_us_per_op"] = float64(c.tracedNs) / 1e3 / float64(c.tracedOps)
		r.layer["trace.overhead_churn_ops_per_s"] = float64(c.tracedOps)/(float64(c.tracedNs)/1e9) - untraced
	}
	r.layer["core.edit_us_per_op"] = float64(c.editNs) / 1e3 / float64(c.ops)
	r.layer["fastpath.coalesced_ratio"] = float64(c.coalesced) / float64(c.ops)
	r.layer["fastpath.fallback_ratio"] = float64(c.fallbacks) / float64(c.events)
	r.layer["fastpath.compactions"] = float64(c.compact)
	r.layer["fastpath.recompiles"] = float64(c.recompiles)
}

// count adds a stage's operations and failures to the run's, and flags
// the stage when any failed.
func (r *report) count(stage string, attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.flags = append(r.flags, fmt.Sprintf("%s: %d of %d operations failed", stage, failed, attempted))
	}
}

// rate records a throughput figure scaled to the probe's reference
// speed, the same figure as timed, how many calls stand behind it and
// how far their rates spread.
func (r *report) rate(name string, s *rateSampler, value, unscaled float64) {
	r.e2e[name] = value
	r.unscaled[name] = unscaled
	if len(s.speeds) > 0 {
		r.probe[name] = median(s.speeds)
	}
	r.samples[name] = s.samples()
	if len(s.calls) >= 2 {
		r.spreads[name] = spread(s.calls)
	}
}

// runtime records the benchmark process's own GC and allocation figures
// over the workload's measured window; ops is that window's unit of work
// (packets sent, frames through the hop, or route ops applied).
func (r *report) runtime(d runtimeDelta, ops float64) {
	r.layer["runtime.gc_cycles"] = d.gcCycles
	r.layer["runtime.gc_cpu_fraction"] = d.gcFraction()
	if ops > 0 {
		r.layer["runtime.alloc_bytes_per_op"] = d.allocBytes / ops
	}
}

// fingerprint describes the host, the build and the inputs of a run.
func fingerprint(root, commit, workload string, seed int64, seconds, traced int) map[string]any {
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		kernel = utsString(uts.Release[:])
	}
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"kernel":      kernel,
		"commit":      commit,
		"source_sha":  sourceDigest(root),
		"workload":    workload,
		"seed":        seed,
		"seeds":       map[string]int64{"universe": seed, "destinations": seed + 1, "churn_stream": seed + 2, "wire_flows": seed},
		"seconds":     seconds,
		"trace":       traced,
		"traffic":     "loopback UDP (127.0.0.1); the in-process stages use no sockets",
		"frame_bytes": frameLen,
	}
}

func utsString(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping build output: it identifies the code measured
// when the checkout carries no commit.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
