package fault

import (
	"testing"

	"repro/internal/fastpath"
)

// TestRCUChurnSoak races the three RCU writer grades against wait-free
// readers and learning forwarders, on both snapshot layouts — since
// ISSUE 10 the compressed one absorbs Apply batches by patching packed
// subtrees in place, so it must survive the same race and settle to the
// same state a from-scratch compile produces. Deterministic tables,
// bounded size: this is the churn-soak smoke CI runs under -race.
func TestRCUChurnSoak(t *testing.T) {
	for _, lo := range []struct {
		name       string
		layout     fastpath.Layout
		compressed bool
	}{
		{"Flat", fastpath.LayoutFlat, false},
		{"Compressed", fastpath.LayoutCompressed, true},
	} {
		t.Run(lo.name, func(t *testing.T) {
			cfg := ChurnConfig{Seed: 5, Workers: 4, Packets: 1500, Flips: 150, TableSize: 1200, Layout: lo.layout}
			res, err := RCUChurnSoak(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Compressed != lo.compressed {
				t.Fatalf("settled snapshot compressed=%v, want %v", res.Compressed, lo.compressed)
			}
			if res.Violations != 0 {
				t.Fatalf("%d answers matched neither route state", res.Violations)
			}
			if res.Mismatches != 0 {
				t.Fatalf("%d post-quiesce packets diverged from a fresh compile", res.Mismatches)
			}
			if res.Flips != cfg.Flips {
				t.Fatalf("applied %d flips, want %d", res.Flips, cfg.Flips)
			}
			if res.SenderFlips == 0 {
				t.Fatal("no sender flips applied")
			}
			if res.Forwarded != uint64(cfg.Packets) {
				t.Fatalf("forwarders processed %d packets, want %d", res.Forwarded, cfg.Packets)
			}
			if res.Applies == 0 && res.Recompiles == 0 {
				t.Fatal("no batches published: the queue never drained")
			}
			if res.Packets == 0 {
				t.Fatal("checkers processed nothing")
			}
		})
	}
}
