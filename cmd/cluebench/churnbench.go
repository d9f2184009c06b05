package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/churn"
	"repro/internal/fastpath"
)

// churnRecord is one cell of the churn sweep: one burst shape at one
// update rate, replayed through the incremental recompilation path while
// forwarding goroutines run packets. Latencies are microseconds; rates are busy-time
// packets per second (see internal/churn).
type churnRecord struct {
	Shape           string  `json:"shape"`
	Scale           string  `json:"scale"`  // "paper" (2k, 1999-shaped) or "modern" (1M full view)
	Layout          string  `json:"layout"` // snapshot trie representation
	TableSize       int     `json:"table_size"`
	MeanBurst       int     `json:"mean_burst"`
	StormEvery      int     `json:"storm_every"`
	PacketsPerBurst int     `json:"packets_per_burst"`
	Bursts          int     `json:"bursts"`
	Updates         int     `json:"updates"`
	UpdatesPerSec   float64 `json:"updates_per_sec"`

	Probes int     `json:"probes"`
	P50Us  float64 `json:"p50_visibility_us"`
	P99Us  float64 `json:"p99_visibility_us"`
	MaxUs  float64 `json:"max_visibility_us"`
	Stalls int     `json:"stalls"`

	SweepPackets    int `json:"sweep_packets"`
	SweepMismatches int `json:"sweep_mismatches"`

	ChurnPPS        float64 `json:"churn_pps"`
	BaselinePPS     float64 `json:"baseline_pps"`
	ThroughputRatio float64 `json:"throughput_ratio"`

	Applies        uint64 `json:"applies"`
	AppliedOps     uint64 `json:"applied_ops"`
	Coalesced      uint64 `json:"coalesced"`
	Overflows      uint64 `json:"overflows"`
	Fallbacks      uint64 `json:"fallbacks"`
	FallbacksBroad uint64 `json:"fallbacks_broad"`
	FallbacksDict  uint64 `json:"fallbacks_dict"`
	FallbacksNodes uint64 `json:"fallbacks_nodes"`
	Compactions    uint64 `json:"compactions"`
	Recompiles     uint64 `json:"recompiles"`
	Patches        uint64 `json:"patches"`
}

// sanitize maps NaN/Inf to 0 so the report is always valid JSON.
func (r churnRecord) sanitize() churnRecord {
	r.UpdatesPerSec = finite(r.UpdatesPerSec)
	r.P50Us = finite(r.P50Us)
	r.P99Us = finite(r.P99Us)
	r.MaxUs = finite(r.MaxUs)
	r.ChurnPPS = finite(r.ChurnPPS)
	r.BaselinePPS = finite(r.BaselinePPS)
	r.ThroughputRatio = finite(r.ThroughputRatio)
	return r
}

type churnReport struct {
	HostCPUs   int           `json:"host_cpus"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Seed       int64         `json:"seed"`
	TableSize  int           `json:"table_size"`
	Note       string        `json:"note"`
	Records    []churnRecord `json:"records"`
}

// churnShapes are the burst shapes the sweep crosses with the update
// rate: a steady trickle, the default bursty stream, and a storm-heavy
// stream (every 4th burst ~8× inflated). StormEvery < 0 disables storms.
var churnShapes = []struct {
	name   string
	stream churn.StreamConfig
}{
	{"steady", churn.StreamConfig{MeanBurst: 4, StormEvery: -1}},
	{"bursty", churn.StreamConfig{MeanBurst: 8, StormEvery: 16}},
	{"storm", churn.StreamConfig{MeanBurst: 16, StormEvery: 4}},
}

// churnRates vary the update rate relative to traffic: fewer packets per
// burst means the stream mutates the table more often per forwarded
// packet (a higher updates/sec at a given forwarding rate).
var churnRates = []int{64, 256, 1024}

// churnLayouts are the snapshot representations the modern-scale cells
// cross: the flat popcount rows and the packed stride-6 tries, both
// patched in place by Apply since ISSUE 10.
var churnLayouts = []struct {
	name   string
	layout fastpath.Layout
}{
	{"flat", fastpath.LayoutFlat},
	{"compressed", fastpath.LayoutCompressed},
}

// modernChurnSize is the modern-scale cell's table size: a full IPv4
// BGP view (~1M prefixes), the scale at which a per-batch recompile
// would take seconds and incremental patching is the difference between
// converging and drowning.
const modernChurnSize = 1_000_000

// churnCell runs one replay config and folds it into a record.
func churnCell(cfg churn.Config, shape, scale, layout string, stream churn.StreamConfig) (churnRecord, error) {
	res, err := churn.Run(cfg)
	if err != nil {
		return churnRecord{}, err
	}
	upsPerSec := 0.0
	if s := res.Elapsed.Seconds(); s > 0 {
		upsPerSec = float64(res.Updates) / s
	}
	ratio := 0.0
	if res.BaselinePPS > 0 {
		ratio = res.ChurnPPS / res.BaselinePPS
	}
	w := res.Writer
	rec := churnRecord{
		Shape:           shape,
		Scale:           scale,
		Layout:          layout,
		TableSize:       cfg.TableSize,
		MeanBurst:       stream.MeanBurst,
		StormEvery:      stream.StormEvery,
		PacketsPerBurst: cfg.PacketsPerBurst,
		Bursts:          res.Bursts,
		Updates:         res.Updates,
		UpdatesPerSec:   upsPerSec,
		Probes:          res.Probes,
		P50Us:           res.P50,
		P99Us:           res.P99,
		MaxUs:           res.MaxVis,
		Stalls:          res.Stalls,
		SweepPackets:    res.SweepPackets,
		SweepMismatches: res.SweepMismatches,
		ChurnPPS:        res.ChurnPPS,
		BaselinePPS:     res.BaselinePPS,
		ThroughputRatio: ratio,
		Applies:         w.Applies,
		AppliedOps:      w.AppliedOps,
		Coalesced:       w.Coalesced,
		Overflows:       w.Overflows,
		Fallbacks:       w.Fallbacks,
		FallbacksBroad:  w.FallbacksBroad,
		FallbacksDict:   w.FallbacksDict,
		FallbacksNodes:  w.FallbacksNodes,
		Compactions:     w.Compactions,
		Recompiles:      w.Recompiles,
		Patches:         w.Patches,
	}.sanitize()
	fmt.Printf("  %-6s %-7s %-10s ppb=%-4d  %5d updates (%.0f/s)  p50 %.1fµs  p99 %.1fµs  stalls %d  fallbacks %d  mismatches %d  %.0f%% of baseline\n",
		shape, scale, layout, cfg.PacketsPerBurst, rec.Updates, rec.UpdatesPerSec,
		rec.P50Us, rec.P99Us, rec.Stalls, rec.Fallbacks, rec.SweepMismatches, 100*ratio)
	return rec, nil
}

// runChurnBench replays the BGP-shaped stream through fastpath.RCU at
// each shape × rate cell (paper-scale tables), then at modern scale —
// a 1M-prefix full view — across both snapshot layouts, and writes the
// sweep to path (BENCH_churn.json).
func runChurnBench(path string, seed int64) error {
	const tableSize = 2000
	rep := churnReport{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		TableSize:  tableSize,
		Note: "updates/sec × burst shape sweep over internal/churn: bursty BGP-shaped " +
			"streams replayed into a live fastpath.RCU while forwarding goroutines run packets; " +
			"latencies are update-visibility (issue → first packet observing the route), " +
			"rates are busy-time PPS, sweep_mismatches compares the incrementally patched " +
			"snapshot against a full recompile after quiesce. Modern-scale records replay " +
			"the same machinery over a 1M-prefix modern-shaped view on both snapshot " +
			"layouts; since ISSUE 10 the compressed layout patches packed subtrees in " +
			"place, so its fallbacks at modern scale must be zero.",
	}

	fmt.Printf("churn sweep: %d shapes × %d rates, %d-entry tables\n",
		len(churnShapes), len(churnRates), tableSize)
	for _, shape := range churnShapes {
		for _, ppb := range churnRates {
			rec, err := churnCell(churn.Config{
				Seed:            seed,
				TableSize:       tableSize,
				Bursts:          200,
				Stream:          shape.stream,
				PacketsPerBurst: ppb,
			}, shape.name, "paper", "auto", shape.stream)
			if err != nil {
				return err
			}
			rep.Records = append(rep.Records, rec)
		}
	}

	fmt.Printf("modern-scale churn: %d-entry tables × %d layouts\n", modernChurnSize, len(churnLayouts))
	stream := churn.StreamConfig{MeanBurst: 8, StormEvery: 16}
	for _, lo := range churnLayouts {
		rec, err := churnCell(churn.Config{
			Seed:            seed,
			Modern:          true,
			Layout:          lo.layout,
			TableSize:       modernChurnSize,
			Bursts:          200,
			Stream:          stream,
			PacketsPerBurst: 256,
		}, "bursty", "modern", lo.name, stream)
		if err != nil {
			return err
		}
		rep.Records = append(rep.Records, rec)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d records)\n", path, len(rep.Records))
	return nil
}
