package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/fib"
	"repro/internal/header"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trie"
)

// pair is a modern-shaped IPv4 sender/receiver pair and the receiver's
// clue table over the sender's prefixes (Regular engine).
type pair struct {
	sender *fib.Table
	st, rt *trie.Trie
	tab    *core.Table
}

// setupTimes is one set-up's cost, split by layer (seconds).
type setupTimes struct {
	gen, pre, compile, warm float64
}

func (s setupTimes) total() float64 { return s.gen + s.pre + s.compile + s.warm }

// buildPair generates the universe and router pair and preprocesses the
// clue table: Simple, or Advance with sender verification. Compile is
// left to the caller, which decides between a bare snapshot and an RCU.
func buildPair(seed int64, n int, advance bool, rec *recorder, group uint64) (*pair, setupTimes) {
	var st setupTimes
	t0 := nowNs()
	start := time.Now()
	u := synth.NewModernUniverse(seed, ip.IPv4, n+n/16+64)
	sf := u.Router("bench-sender", n, 0.02)
	rf := u.Router("bench-receiver", n, 0.02)
	p := &pair{sender: sf, st: sf.Trie(), rt: rf.Trie()}
	st.gen = time.Since(start).Seconds()
	t1 := nowNs()
	rec.add(spanGen, 0, group, t0, t1)

	start = time.Now()
	cfg := core.Config{Method: core.Simple, Engine: lookup.NewRegular(p.rt), Local: p.rt}
	if advance {
		cfg.Method = core.Advance
		cfg.Sender = p.st.Contains
		cfg.Verify = true
		cfg.SenderTrie = p.st
	}
	p.tab = core.MustNewTable(cfg)
	p.tab.Preprocess(sf.Prefixes())
	st.pre = time.Since(start).Seconds()
	rec.add(spanPre, 0, group, t1, nowNs())
	return p, st
}

// hopDests draws one destination inside every sender prefix the receiver
// can route, each with the clue the sender would stamp (its best
// matching prefix length), in seeded random order: the working set is
// the whole table.
func hopDests(p *pair, seed int64) ([]ip.Addr, []int) {
	rng := rand.New(rand.NewSource(seed))
	prefs := p.sender.Prefixes()
	dsts := make([]ip.Addr, 0, len(prefs))
	clues := make([]int, 0, len(prefs))
	for _, pr := range prefs {
		d := pr.Addr()
		if l := pr.Len(); l < 32 {
			d = ip.AddrFrom32(d.Uint32() | rng.Uint32()&(^uint32(0)>>uint(l)))
		}
		if _, _, ok := p.rt.Lookup(d, nil); !ok {
			continue
		}
		bmp, _, ok := p.st.Lookup(d, nil)
		if !ok {
			continue
		}
		dsts = append(dsts, d)
		clues = append(clues, bmp.Len())
	}
	rng.Shuffle(len(dsts), func(i, j int) {
		dsts[i], dsts[j] = dsts[j], dsts[i]
		clues[i], clues[j] = clues[j], clues[i]
	})
	return dsts, clues
}

// frameLen is the smallest clue frame: a 24-byte IPv4 header carrying
// the 3-byte clue option, then the generator's 20-byte stamp.
const frameLen = 24 + cluster.StampLen

// frameTTL is the TTL every pre-built frame carries.
const frameTTL = 64

// buildFrames marshals one frame per destination into a contiguous
// buffer, frameLen bytes apart.
func buildFrames(dsts []ip.Addr, clues []int) ([]byte, error) {
	buf := make([]byte, 0, len(dsts)*frameLen)
	src := ip.MustParseAddr("10.0.0.1")
	for i, d := range dsts {
		h := &header.IPv4{TTL: frameTTL, Protocol: 17, Src: src, Dst: d,
			Clue: &header.ClueOption{Len: clues[i]}}
		b, err := h.Marshal(cluster.StampLen)
		if err != nil {
			return nil, fmt.Errorf("marshal frame %d: %w", i, err)
		}
		if len(b) != frameLen-cluster.StampLen {
			return nil, fmt.Errorf("frame %d: header is %d bytes, want %d", i, len(b), frameLen-cluster.StampLen)
		}
		buf = append(buf, b...)
		buf = cluster.AppendStamp(buf, uint32(i), 0, 0)
	}
	return buf, nil
}

// restoreFrame undoes RewriteClueIPv4: TTL and clue back to what the
// frame was built with, checksum recomputed, so frames never drift
// across passes.
func restoreFrame(f []byte, clue int) {
	f[8] = frameTTL
	f[22] = byte(clue)
	f[10], f[11] = 0, 0
	binary.BigEndian.PutUint16(f[10:], header.Checksum(f[:24]))
}

// hopBatch is how many frames go through each layer call.
const hopBatch = 256

// hopGroup is how many batches a scaled hop rate is taken over: about
// 15 ms of hop time.
const hopGroup = 256

// hopBuf holds one batch's per-frame state between the layer calls.
type hopBuf struct {
	dsts  [hopBatch]ip.Addr
	clues [hopBatch]int
	hls   [hopBatch]int
	out   [hopBatch]core.Result
}

// pass sends the frames of batch, frameLen bytes apart, through one hop
// in place: PeekIPv4 → ProcessBatch → RewriteClueIPv4. It returns when
// the lookup started and ended, and how many frames failed to peek,
// route or rewrite. cnt, when not nil, is charged the lookup's memory
// references.
func (b *hopBuf) pass(snap *fastpath.Snapshot, batch []byte, cnt *mem.Counter) (t1, t2, failed int64) {
	k := len(batch) / frameLen
	for j := 0; j < k; j++ {
		f := batch[j*frameLen : (j+1)*frameLen]
		var ok bool
		b.dsts[j], _, b.clues[j], b.hls[j], ok = header.PeekIPv4(f)
		if !ok {
			b.hls[j] = 0
		}
	}
	t1 = nowNs()
	snap.ProcessBatch(b.dsts[:k], b.clues[:k], b.out[:k], cnt)
	t2 = nowNs()
	for j := 0; j < k; j++ {
		f := batch[j*frameLen : (j+1)*frameLen]
		if b.hls[j] == 0 || !b.out[j].OK || !header.RewriteClueIPv4(f, b.hls[j], b.out[j].Prefix.Clue()) {
			failed++
		}
	}
	return t1, t2, failed
}

// hopResult is what one hop window measured.
type hopResult struct {
	pps       *rateSampler // frames per second of hop time, untraced batches
	tracedPPS *rateSampler // the same over traced batches
	frames    int64        // frames through the hop in the window
	failed    int64        // frames that failed to peek, route or rewrite
	outcomes  [core.NumOutcomes]int64
	traced    int64 // frames in traced batches
	peekNs    int64
	lookupNs  int64
	rewriteNs int64
	allocs    runtimeDelta
}

// runHop drives frames through the hop closed loop on the calling
// goroutine for dur, restoring every frame after its batch (untimed).
// With traceEvery > 0 the window alternates untraced and traced
// intervals of that length and records a span per layer call in the
// traced ones.
func runHop(snap *fastpath.Snapshot, frames []byte, dur, traceEvery time.Duration, rec *recorder) *hopResult {
	n := len(frames) / frameLen
	// A batch takes tens of microseconds; 10 µs sizes the samplers with
	// room to spare.
	res := &hopResult{
		pps:       newRateSampler(dur, 10*time.Microsecond, hopGroup, aluRef),
		tracedPPS: newRateSampler(dur, 10*time.Microsecond, hopGroup, aluRef),
	}
	var b hopBuf
	runtime.GC() // start from a settled heap, as every window does
	before := readRuntime()
	start := time.Now()
	var group uint64
	for next := 0; ; {
		elapsed := time.Since(start)
		if elapsed >= dur {
			break
		}
		traced := traceEvery > 0 && (elapsed/traceEvery)%2 == 1
		k := min(hopBatch, n-next)
		batch := frames[next*frameLen : (next+k)*frameLen]
		group++

		t0 := nowNs()
		t1, t2, failed := b.pass(snap, batch, nil)
		t3 := nowNs()
		speed := aluProbe()

		res.frames += int64(k)
		res.failed += failed
		if traced {
			id := rec.add(spanHop, 0, group, t0, t3)
			rec.add(spanPeek, id, group, t0, t1)
			rec.add(spanLookup, id, group, t1, t2)
			rec.add(spanRewrite, id, group, t2, t3)
			res.tracedPPS.add(float64(k), t3-t0, speed)
			res.traced += int64(k)
			res.peekNs += t1 - t0
			res.lookupNs += t2 - t1
			res.rewriteNs += t3 - t2
			for j := 0; j < k; j++ {
				res.outcomes[b.out[j].Outcome]++
			}
		} else {
			res.pps.add(float64(k), t3-t0, speed)
		}
		for j := 0; j < k; j++ {
			if b.hls[j] != 0 {
				restoreFrame(batch[j*frameLen:(j+1)*frameLen], b.clues[j])
			}
		}
		next += k
		if next == n {
			next = 0
		}
	}
	res.allocs = readRuntime().sub(before)
	return res
}

// refsPerPacket runs every frame through the snapshot once, untimed,
// and returns the paper's metric: memory references per packet. It is
// a pure function of the table and the frames.
func refsPerPacket(snap *fastpath.Snapshot, dsts []ip.Addr, clues []int) float64 {
	var cnt mem.Counter
	out := make([]core.Result, hopBatch)
	for i := 0; i < len(dsts); i += hopBatch {
		k := min(hopBatch, len(dsts)-i)
		snap.ProcessBatch(dsts[i:i+k], clues[i:i+k], out[:k], &cnt)
	}
	return float64(cnt.Count()) / float64(len(dsts))
}

// oracleSample is how many frames the output check compares against
// the interpreted clue table.
const oracleSample = 4096

// checkHop verifies the hop's outputs outside the timed loop. Every frame
// must still peek as built (TTL and clue restored, checksum valid). A
// fixed sample is copied and sent through the same hop path as the timed
// loop, in batches: each ProcessBatch answer must agree with the
// interpreted core.Table on outcome and next hop, each batch's charged
// references must equal the table's, and each rewritten frame must carry
// the table's answer (see rewritten). It returns checks made and failed.
func checkHop(snap *fastpath.Snapshot, oracle *core.Table, frames []byte, clues []int) (attempted, failed int64) {
	n := len(frames) / frameLen
	for i := 0; i < n; i++ {
		f := frames[i*frameLen : (i+1)*frameLen]
		_, ttl, c, hl, ok := header.PeekIPv4(f)
		attempted++
		if !ok || ttl != frameTTL || c != clues[i] || hl != 24 {
			failed++
		}
	}
	stride := max(1, n/oracleSample)
	sample := make([]byte, 0, (n/stride+1)*frameLen)
	for i := 0; i < n; i += stride {
		sample = append(sample, frames[i*frameLen:(i+1)*frameLen]...)
	}
	var b hopBuf
	for i := 0; i < len(sample); i += hopBatch * frameLen {
		batch := sample[i:min(len(sample), i+hopBatch*frameLen)]
		var got, want mem.Counter
		_, _, bad := b.pass(snap, batch, &got)
		failed += bad
		for j := 0; j < len(batch)/frameLen; j++ {
			r := oracle.Process(b.dsts[j], b.clues[j], &want)
			attempted++
			o := b.out[j]
			if o.Outcome != r.Outcome || o.OK != r.OK || o.Value != r.Value || o.Prefix != r.Prefix ||
				!rewritten(batch[j*frameLen:(j+1)*frameLen], b.dsts[j], r) {
				failed++
			}
		}
		attempted++
		if got.Count() != want.Count() {
			failed++
		}
	}
	return attempted, failed
}

// rewritten reports whether frame f, built with TTL frameTTL for dst,
// left the hop as it should: a valid checksum, TTL one lower, and the
// clue of the prefix the table matched.
func rewritten(f []byte, dst ip.Addr, want core.Result) bool {
	d, ttl, c, hl, ok := header.PeekIPv4(f)
	return ok && hl == 24 && d == dst && ttl == frameTTL-1 && c == want.Prefix.Clue()
}

// hopStage is what one in-process hop measurement produced.
type hopStage struct {
	run       *hopResult
	refs      float64
	mem       fastpath.MemStats
	attempted int64
	failed    int64
}

// measureHop builds frames for the destinations, counts the paper's
// references once, runs the timed hop window and checks the outputs.
func measureHop(snap *fastpath.Snapshot, oracle *core.Table, dsts []ip.Addr, clues []int,
	window, traceEvery time.Duration, tr *tracer) (*hopStage, error) {
	frames, err := buildFrames(dsts, clues)
	if err != nil {
		return nil, err
	}
	hs := &hopStage{refs: refsPerPacket(snap, dsts, clues), mem: snap.MemStats()}
	hs.run = runHop(snap, frames, window, traceEvery, tr.recorder(1<<19))
	att, fail := checkHop(snap, oracle, frames, clues)
	hs.attempted = att + hs.run.frames
	hs.failed = fail + hs.run.failed
	return hs, nil
}
