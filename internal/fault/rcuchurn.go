package fault

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// RCUChurnResult is the ClassChurn soak run against the wait-free read
// path: fastpath.RCU under all three writer grades at once, with
// forwarders learning at full rate on top of the checker goroutines. Violations counts checker answers matching NEITHER route
// state — the same two-valued invariant as ChurnSoak.
type RCUChurnResult struct {
	Packets       int // checker lookups (incl. the quiesced sweep)
	Flips         int // receiver-route flips pushed through the writer queue
	SenderFlips   int // sender-table flips (Advance candidate movement)
	Invalidations int // §3.4 invalidate/revalidate pairs, entry-patch grade
	Violations    int64

	Forwarded uint64 // packets the forwarders processed during the race
	Learned   int    // entries the forwarders' misses taught the table

	// Mismatches counts post-quiesce packets where the settled snapshot
	// differed from a from-scratch compile of the same table — outcome,
	// next hop or memory charge. Any nonzero value means the incremental
	// write path corrupted the published trie.
	Mismatches int
	// Compressed reports the settled snapshot's layout, so callers can
	// assert the soak really exercised the packed representation.
	Compressed bool

	// Writer-side counter snapshot: how the update machinery behaved.
	Patches, Applies, Recompiles, Overflows, Fallbacks uint64
}

// RCUChurnSoak is ChurnSoak's sibling for the RCU fast path: where
// ChurnSoak races forwarding against core.ConcurrentTable's lock-based
// Mutate, this races all three RCU writer grades against wait-free
// readers — route flips through the bounded writer queue (Enqueue →
// Apply), sender flips moving Advance candidate sets, and
// invalidate/revalidate entry patches — while forwarding goroutines
// process and learn concurrently. Readers never block by
// construction; run it under -race to prove they never tear either.
// Every checker answer must match the full lookup in one of the two
// route states, and the settled state exactly after quiesce.
func RCUChurnSoak(cfg ChurnConfig) (RCUChurnResult, error) {
	cfg.fill()
	u := synth.NewUniverse(cfg.Seed, cfg.TableSize+cfg.TableSize/4)
	sfib := u.Router(synth.RouterSpec{Name: "churn-sender", Size: cfg.TableSize, Divergence: cfg.Divergence})
	rfib := u.Router(synth.RouterSpec{Name: "churn-recv", Size: cfg.TableSize, Divergence: cfg.Divergence})

	baseT1 := sfib.Trie()
	wl := synth.NewWorkload(cfg.Seed+1, sfib)
	pkts := make([]packet, cfg.Packets)
	for i := range pkts {
		d := wl.Next()
		clue := NoClue
		if p, _, ok := baseT1.Lookup(d, nil); ok {
			clue = p.Len()
		}
		pkts[i] = packet{d, clue}
	}

	// Flip prefix, sender flip and clue target exactly as in ChurnSoak.
	const flipVal = 424242
	baseT2 := rfib.Trie()
	d0 := pkts[0].dest
	flip := ip.PrefixFrom(d0, 28)
	for l := 27; l > 8 && (baseT2.Contains(flip) || baseT1.Contains(flip)); l-- {
		flip = ip.PrefixFrom(d0, l)
	}
	sflip := ip.PrefixFrom(d0, 10)
	cluePfx := ip.PrefixFrom(d0, pkts[0].clue)

	refB := rfib.Trie()
	refA := rfib.Trie()
	refA.Insert(flip, flipVal)
	wA := make([]answer, len(pkts))
	wB := make([]answer, len(pkts))
	for i, p := range pkts {
		wA[i] = lookupAnswer(refA, p.dest)
		wB[i] = lookupAnswer(refB, p.dest)
	}

	t1, t2 := sfib.Trie(), rfib.Trie()
	tab := core.MustNewTable(core.Config{
		Method: core.Advance, Engine: lookup.NewRegular(t2),
		Local: t2, Sender: t1.Contains, Verify: true, SenderTrie: t1,
		Learn: true, LearnLimit: cfg.LearnLimit,
	})
	reg := telemetry.NewRegistry()
	met := fastpath.Metrics{
		Patches:    reg.NewCounter("soak_patches", "entry patches"),
		Applies:    reg.NewCounter("soak_applies", "apply batches"),
		Recompiles: reg.NewCounter("soak_recompiles", "full recompiles"),
		Overflows:  reg.NewCounter("soak_overflows", "queue overflows"),
		Fallbacks:  reg.NewCounter("soak_fallbacks", "unpatchable batches"),
	}
	rcu := fastpath.NewRCULayout(tab, cfg.Layout)
	rcu.SetMetrics(met)
	rcu.StartApplier(64)

	res := RCUChurnResult{}
	senderIn := t1.Contains(sflip) // decided before the race starts

	var violations int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range pkts {
				var r core.Result
				if p.clue == NoClue {
					r = rcu.ProcessNoClue(p.dest, nil)
				} else {
					r = rcu.Process(p.dest, p.clue, nil)
				}
				if !matches(r, wA[i]) && !matches(r, wB[i]) {
					atomic.AddInt64(&violations, 1)
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := 0; f < cfg.Flips; f++ {
			if f%2 == 0 {
				rcu.Enqueue(fastpath.RouteOp{Kind: fastpath.OpAnnounce, Prefix: flip, Value: flipVal})
			} else {
				rcu.Enqueue(fastpath.RouteOp{Kind: fastpath.OpWithdraw, Prefix: flip})
			}
			res.Flips++
			if f%3 == 0 {
				if senderIn {
					rcu.Enqueue(fastpath.RouteOp{Kind: fastpath.OpSenderWithdraw, Prefix: sflip})
				} else {
					rcu.Enqueue(fastpath.RouteOp{Kind: fastpath.OpSenderAnnounce, Prefix: sflip})
				}
				senderIn = !senderIn
				res.SenderFlips++
			}
			if f%5 == 0 && rcu.Invalidate(cluePfx) {
				res.Invalidations++
				rcu.Revalidate(cluePfx)
			}
		}
	}()

	// Two forwarders process (and learn from) the same packets, split by
	// destination hash so each flow's misses are learned in its arrival
	// order on one goroutine.
	const forwarders = 2
	var forwarded atomic.Uint64
	for w := uint64(0); w < forwarders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range pkts {
				if p.dest.Hash()%forwarders != w {
					continue
				}
				if r := rcu.Process(p.dest, p.clue, nil); r.Outcome == core.OutcomeMiss {
					rcu.Learn(p.dest, p.clue)
				}
				forwarded.Add(1)
			}
		}()
	}
	wg.Wait()
	rcu.StopApplier() // drains: the settled route state is now published
	res.Packets = cfg.Workers * len(pkts)
	res.Forwarded = forwarded.Load()
	res.Learned = rcu.Learned()

	// Quiesced: every answer must match the settled state exactly.
	want := wB
	if t2.Contains(flip) {
		want = wA
	}
	for i, p := range pkts {
		var r core.Result
		if p.clue == NoClue {
			r = rcu.ProcessNoClue(p.dest, nil)
		} else {
			r = rcu.Process(p.dest, p.clue, nil)
		}
		if !matches(r, want[i]) {
			violations++
		}
		res.Packets++
	}
	res.Violations = violations

	// Differential sweep: the settled snapshot — however many patches,
	// applies and recompiles it absorbed — must be indistinguishable from
	// compiling the quiesced table from scratch, memory charge included.
	snap := rcu.Snapshot()
	fresh := fastpath.CompileLayout(tab, cfg.Layout)
	res.Compressed = snap.Compressed()
	for _, p := range pkts {
		var cs, cf mem.Counter
		var rs, rf core.Result
		if p.clue == NoClue {
			rs = snap.ProcessNoClue(p.dest, &cs)
			rf = fresh.ProcessNoClue(p.dest, &cf)
		} else {
			rs = snap.Process(p.dest, p.clue, &cs)
			rf = fresh.Process(p.dest, p.clue, &cf)
		}
		if rs != rf || cs.Count() != cf.Count() {
			res.Mismatches++
		}
	}

	res.Patches = met.Patches.Value()
	res.Applies = met.Applies.Value()
	res.Recompiles = met.Recompiles.Value()
	res.Overflows = met.Overflows.Value()
	res.Fallbacks = met.Fallbacks.Value()
	return res, nil
}
