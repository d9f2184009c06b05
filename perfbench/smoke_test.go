package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fastpath"
	"repro/internal/header"
)

// smokePrefixes shrinks the workloads' tables so that every workload
// runs end to end in seconds.
const smokePrefixes = 5000

// TestWorkloadsSmoke runs every workload, untraced and traced, at
// reduced size through the command itself, and checks the result line:
// correct, nothing failed, and exactly the metrics BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches clued processes and builds tables")
	}
	clued, err := cluster.BuildDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name := range plans(smokePrefixes) {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace="+traced, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-clued", clued, "-out", t.TempDir(), "--workload", name,
					"--seed", "3", "--seconds", "1", "--trace", traced}
				if err := run(args, smokePrefixes, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
				for _, d := range endToEnd {
					if m := res.Metrics[d.name]; traced == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestCheckHopCatchesDrift corrupts one frame and one table answer's
// worth of state and expects the output check to count both.
func TestCheckHopCatchesDrift(t *testing.T) {
	p, _ := buildPair(5, 3000, false, nil, 0)
	snap := fastpath.CompileLayout(p.tab, fastpath.LayoutAuto)
	dsts, clues := hopDests(p, 6)
	frames, err := buildFrames(dsts, clues)
	if err != nil {
		t.Fatal(err)
	}
	run := runHop(snap, frames, 50_000_000, 0, nil)
	if run.failed != 0 || run.frames == 0 {
		t.Fatalf("hop window: %d frames, %d failed", run.frames, run.failed)
	}
	if att, failed := checkHop(snap, p.tab, frames, clues); failed != 0 || att <= int64(len(dsts)) {
		t.Fatalf("clean check: attempted %d failed %d", att, failed)
	}
	// A snapshot of another table gives answers the oracle disagrees with.
	other, _ := buildPair(7, 3000, false, nil, 0)
	if _, failed := checkHop(fastpath.CompileLayout(other.tab, fastpath.LayoutAuto), p.tab, frames, clues); failed == 0 {
		t.Error("wrong lookup answers went unnoticed")
	}

	// A rewrite must lower TTL by one and carry the matched clue.
	f := append([]byte(nil), frames[:frameLen]...)
	want := p.tab.Process(dsts[0], clues[0], nil)
	if rewritten(f, dsts[0], want) {
		t.Error("a frame the hop left untouched passed as rewritten")
	}
	if !header.RewriteClueIPv4(f, 24, want.Prefix.Clue()) || !rewritten(f, dsts[0], want) {
		t.Fatal("a correct rewrite failed the check")
	}
	f = append(f[:0], frames[:frameLen]...)
	header.RewriteClueIPv4(f, 24, want.Prefix.Clue()+1)
	if rewritten(f, dsts[0], want) {
		t.Error("a rewrite with the wrong clue passed")
	}
	f = append(f[:0], frames[:frameLen]...)
	header.RewriteClueIPv4(f, 24, want.Prefix.Clue())
	f[9]++ // protocol byte: checksum no longer valid
	if rewritten(f, dsts[0], want) {
		t.Error("a rewrite with a bad checksum passed")
	}

	frames[8]-- // first frame: TTL drifted, checksum now wrong
	if _, failed := checkHop(snap, p.tab, frames, clues); failed == 0 {
		t.Error("a drifted frame went unnoticed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in agreement:
// the same workloads, and the same metrics with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricEntry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricEntry `json:"end_to_end"`
		PerLayer   []metricEntry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	pl := plans(smokePrefixes)
	if len(bench.Workloads) != len(pl) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bench.Workloads), len(pl))
	}
	for _, w := range bench.Workloads {
		if _, ok := pl[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q: known=%v why=%q", w.Name, ok, w.Why)
		}
	}
	same := func(kind string, got []metricEntry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) || (g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd, true)
	same("per_layer", bench.PerLayer, perLayer, false)
}
