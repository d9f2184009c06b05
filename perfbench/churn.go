package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/ip"
	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/trie"
)

// warmPrefix is the prefix whose Affected call builds a table's clue
// shadow index; any prefix does.
var warmPrefix = ip.MustParsePrefix("10.0.0.0/8")

// sweepStride thins the differential sweep over the reader's
// destinations (every op's own prefix is always swept): a quarter of
// them, 25k shuffled destinations at 100k prefixes.
const sweepStride = 4

// minEvents is the fewest events the writer applies. It only binds on
// short runs: the p99 of per-event latency then rests on twenty events,
// and a traced run's writer outlasts its first, untraced interval.
const minEvents = 2000

// writeGroup is how many events a scaled writer figure takes each
// slowdown and each rate over: tens to hundreds of milliseconds of Apply
// time.
const writeGroup = 64

// pairResult is what one run over a workload's pair measured: its
// set-ups, the static hop and the churn.
type pairResult struct {
	setup      []setupTimes
	hop        *hopStage // static hop on the live table, before the churn
	events     int
	ops        int64
	write      *rateSampler // untraced events: ops and Apply time
	tracedNs   int64        // traced events: Apply time
	tracedOps  int64        // traced events: ops
	read       *rateSampler
	editNs     int64 // reference replay through core's maintenance sequence
	coalesced  uint64
	fallbacks  uint64
	compact    uint64
	recompiles uint64
	sweep      int64 // differential comparisons made
	mismatches int64
	runtime    runtimeDelta
}

// writerMetrics returns fresh fastpath writer counters.
func writerMetrics() fastpath.Metrics {
	reg := telemetry.NewRegistry()
	c := func(name string) *telemetry.Counter { return reg.NewCounter(name, name) }
	return fastpath.Metrics{
		Swaps: c("swaps"), Patches: c("patches"), Recompiles: c("recompiles"), Learns: c("learns"),
		Applies: c("applies"), AppliedOps: c("applied_ops"), Coalesced: c("coalesced"),
		Overflows: c("overflows"), Fallbacks: c("fallbacks"), Compactions: c("compactions"),
		Defensive: c("defensive"), FallbacksBroad: c("fallbacks_broad"),
		FallbacksDict: c("fallbacks_dict"), FallbacksNodes: c("fallbacks_nodes"),
	}
}

// runPair builds the workload's pair behind an RCU and times the static
// hop over it. Then a closed-loop writer applies BGP-shaped events with
// RCU.Apply, pl.eventRate per second of the window and at least
// minEvents, while one reader goroutine runs ProcessBatch over the whole
// destination set.
// Last it rebuilds the pair as an independent reference, replays the
// same ops through core's maintenance sequence and sweeps the patched
// snapshot against a full compile of the reference. Both builds are
// timed as set-ups.
func runPair(seed int64, pl plan, window, traceEvery time.Duration, tr *tracer) (*pairResult, error) {
	res := &pairResult{
		read:  newRateSampler(window, readPeriod, readGroup, aluRef),
		write: newRateSampler(window, 10*time.Microsecond, writeGroup, copyRef),
	}
	wrec := tr.recorder(1 << 18)

	// Set-up 1: the live table, compiled behind an RCU, its clue shadow
	// index warmed so the first Apply does not pay for building it.
	p, st := buildPair(seed, pl.prefixes, pl.advance, wrec, 1)
	t0 := nowNs()
	start := time.Now()
	rcu := fastpath.NewRCULayout(p.tab, fastpath.LayoutAuto)
	st.compile = time.Since(start).Seconds()
	t1 := nowNs()
	wrec.add(spanCompile, 0, 1, t0, t1)
	start = time.Now()
	p.tab.Affected(warmPrefix)
	st.warm = time.Since(start).Seconds()
	wrec.add(spanWarm, 0, 1, t1, nowNs())
	res.setup = append(res.setup, st)
	met := writerMetrics()
	rcu.SetMetrics(met)

	dsts, clues := hopDests(p, seed+1)
	hs, err := measureHop(rcu.Snapshot(), p.tab, dsts, clues, window, traceEvery, tr)
	if err != nil {
		return nil, fmt.Errorf("hop stage: %w", err)
	}
	res.hop = hs

	stream := churn.NewStream(churn.StreamConfig{Seed: seed + 2, MeanBurst: 8, StormEvery: 16}, p.sender)
	var events [][]fastpath.RouteOp
	var stop atomic.Bool
	var wg sync.WaitGroup
	rrec := tr.recorder(1 << 18)
	cp := newCopyProbe()
	runtime.GC() // start from a settled heap, as every window does
	before := readRuntime()
	wstart := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		readLoop(rcu, dsts, clues, &stop, wstart, traceEvery, rrec, res.read)
	}()
	n := max(minEvents, int(window.Seconds()*float64(pl.eventRate)))
	for ev := uint64(1); len(events) < n; ev++ {
		e := stream.Next()
		ops := append(e.Local.Ops(), e.Sender.SenderOps()...)
		if len(ops) == 0 {
			continue
		}
		traced := traceEvery > 0 && (time.Since(wstart)/traceEvery)%2 == 1
		// Apply may coalesce its argument in place; the replay gets the
		// ops as submitted.
		events = append(events, slices.Clone(ops))
		a := nowNs()
		rcu.Apply(ops)
		b := nowNs()
		speed := cp.run()
		if traced {
			wrec.add(spanApply, 0, ev, a, b)
			res.tracedNs += b - a
			res.tracedOps += int64(len(ops))
		} else {
			res.write.add(float64(len(ops)), b-a, speed)
		}
		res.ops += int64(len(ops))
	}
	stop.Store(true)
	wg.Wait()
	res.runtime = readRuntime().sub(before)
	res.events = len(events)
	res.coalesced = met.Coalesced.Value()
	res.fallbacks = met.Fallbacks.Value()
	res.compact = met.Compactions.Value()
	res.recompiles = met.Recompiles.Value()

	// Quiesced: only the patched snapshot lives on; release the live
	// table before the reference is built.
	inc := rcu.Snapshot()
	runtime.GC()

	// Set-up 2: the reference, built the same way from the same seed. It
	// absorbs the ops through core's maintenance sequence — timed per
	// event, outside the set-up time — and is compiled once afterwards.
	ref, st2 := buildPair(seed, pl.prefixes, pl.advance, wrec, 2)
	t0 = nowNs()
	start = time.Now()
	ref.tab.Affected(warmPrefix)
	st2.warm = time.Since(start).Seconds()
	wrec.add(spanWarm, 0, 2, t0, nowNs())
	for i, ops := range events {
		a := nowNs()
		replay(ref.tab, ref.rt, ref.st, ops)
		b := nowNs()
		wrec.add(spanEdit, 0, uint64(i+1), a, b)
		res.editNs += b - a
	}
	t0 = nowNs()
	start = time.Now()
	full := fastpath.CompileLayout(ref.tab, fastpath.LayoutAuto)
	st2.compile = time.Since(start).Seconds()
	wrec.add(spanCompile, 0, 2, t0, nowNs())
	res.setup = append(res.setup, st2)

	res.sweep++
	if inc.Len() != full.Len() {
		res.mismatches++
	}
	var sd []ip.Addr
	var sc []int
	for i := 0; i < len(dsts); i += sweepStride {
		sd = append(sd, dsts[i])
		sc = append(sc, clues[i])
	}
	made, bad := sweepBatches(inc, full, sd, sc)
	res.sweep += made
	res.mismatches += bad
	for _, ops := range events {
		for _, op := range ops {
			res.sweep++
			if !sameResult(inc, full, op.Prefix.Addr(), -1) {
				res.mismatches++
			}
		}
	}
	return res, nil
}

// readPeriod is how often the reader starts a batch of hopBatch
// lookups: it offers about a million lookups per second and sleeps
// between batches. A reader that never sleeps leaves the GC's workers no
// core but the writer's or its own on a 2-vCPU host, and its own speed,
// which the host moves, sets how hard it contends with the writer: on
// hop-1m the writer's figures then spread 0.46–0.71 (IQR/median) over
// four seeds, against 0.12–0.30 with the paced reader.
const readPeriod = 250 * time.Microsecond

// readGroup is how many batches a scaled reader rate is taken over:
// about a second, longer than the writer's GC cycles (20 or more in a
// churn-100k window). Within a group the fast percentile then picks the
// batches no mark phase slowed; shorter groups fall wholly inside or
// outside a mark phase, and their median follows the share of the
// window the GC was marking.
const readGroup = 4096

// readLoop is the reader goroutine: one ProcessBatch over the next
// hopBatch destinations against whatever snapshot is current, every
// readPeriod, until stop. A late batch starts at once; missed starts are
// not made up.
func readLoop(rcu *fastpath.RCU, dsts []ip.Addr, clues []int, stop *atomic.Bool, start time.Time,
	traceEvery time.Duration, rec *recorder, rate *rateSampler) {
	out := make([]core.Result, hopBatch)
	var group uint64
	due := time.Now()
	for next := 0; !stop.Load(); {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		due = due.Add(readPeriod)
		if now := time.Now(); due.Before(now) {
			due = now
		}
		k := min(hopBatch, len(dsts)-next)
		traced := traceEvery > 0 && (time.Since(start)/traceEvery)%2 == 1
		group++
		a := nowNs()
		rcu.Snapshot().ProcessBatch(dsts[next:next+k], clues[next:next+k], out[:k], nil)
		b := nowNs()
		speed := aluProbe()
		if traced {
			rec.add(spanRead, 0, group, a, b)
		} else {
			rate.add(float64(k), b-a, speed)
		}
		next += k
		if next == len(dsts) {
			next = 0
		}
	}
}

// replay absorbs one event's ops into the reference table by core's
// documented per-op maintenance sequence: edit the trie, then recompute
// the affected entries.
func replay(tab *core.Table, local, sender *trie.Trie, ops []fastpath.RouteOp) {
	for _, op := range ops {
		switch op.Kind {
		case fastpath.OpAnnounce:
			local.Insert(op.Prefix, op.Value)
			tab.UpdateLocal(op.Prefix)
		case fastpath.OpWithdraw:
			local.Delete(op.Prefix)
			tab.UpdateLocal(op.Prefix)
		case fastpath.OpSenderAnnounce:
			sender.Insert(op.Prefix, op.Value)
			tab.UpdateSender(op.Prefix)
		case fastpath.OpSenderWithdraw:
			sender.Delete(op.Prefix)
			tab.UpdateSender(op.Prefix)
		}
	}
}

// sweepBatches runs the destinations through ProcessBatch on the patched
// snapshot, as the reader does, and compares every answer with the full
// compile's Process on outcome and next hop, and every batch's charged
// references with the sum of the full compile's. It returns comparisons
// made and failed.
func sweepBatches(inc, full *fastpath.Snapshot, dsts []ip.Addr, clues []int) (made, bad int64) {
	out := make([]core.Result, hopBatch)
	for i := 0; i < len(dsts); i += hopBatch {
		k := min(hopBatch, len(dsts)-i)
		var got, want mem.Counter
		inc.ProcessBatch(dsts[i:i+k], clues[i:i+k], out[:k], &got)
		for j := 0; j < k; j++ {
			made++
			if out[j] != full.Process(dsts[i+j], clues[i+j], &want) {
				bad++
			}
		}
		made++
		if got.Count() != want.Count() {
			bad++
		}
	}
	return made, bad
}

// sameResult compares one packet across two snapshots on outcome, next
// hop and charged references.
func sameResult(a, b *fastpath.Snapshot, d ip.Addr, clue int) bool {
	var ca, cb mem.Counter
	var ra, rb core.Result
	if clue < 0 {
		ra = a.ProcessNoClue(d, &ca)
		rb = b.ProcessNoClue(d, &cb)
	} else {
		ra = a.Process(d, clue, &ca)
		rb = b.Process(d, clue, &cb)
	}
	return ra == rb && ca.Count() == cb.Count()
}
