package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/batchio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/header"
	"repro/internal/ip"
)

// Wire workload shape: a 3-node clued chain at the cluster defaults,
// driven by zipf traffic over a fixed flow set in the smallest frames.
const (
	wireNodes    = 3
	wirePrefixes = 2000
	wireFlows    = 1024
	wireZipf     = 1.2
	wireWindow   = 1024 // saturation phase: packets in flight at most
	wireBurst    = 64   // frames per Writer.Send at most
	wireRateLow  = 40_000
	wireRateHigh = 80_000
	// stampMagic is the marker cluster.AppendStamp writes first.
	stampMagic = 0x434C474E
	// behindUs is the generator send lag (p99, µs) past which an
	// open-loop phase is flagged as not run on schedule.
	behindUs = 1000
	// maxSatPPS sizes the saturation phase's delivery bitmap.
	maxSatPPS = 600_000
	// wireLaunches is how many times the chain is launched, for the
	// launch figure; the last launch carries the traffic.
	wireLaunches = 3
	// The measured phases run interleaved in rounds — 40k, 80k,
	// saturation, 40k, … — so that a stretch of host noise hits all three
	// alike, and every figure is the median over the rounds of that
	// round's figure. wireRound is each phase's length in one round.
	wireRounds = 4
	wireRound  = 250 * time.Millisecond
)

// Wire phases, numbered as carried in the stamp's flow field.
const (
	phaseWarm = iota
	phaseLow
	phaseHigh
	phaseSat
	numPhases
)

var phaseNames = [numPhases]string{"warm", "40k", "80k", "saturation"}

// phaseState is one phase's delivery record, per round. The sender
// publishes sent before it waits for a round; the collector owns the
// rest until it has stopped.
type phaseState struct {
	sent     atomic.Int64
	received atomic.Int64
	seen     []bool      // by sequence number
	lat      [][]float64 // per round: µs from due time to arrival
	late     []float64   // µs the generator sent after the due time
	first    []int64     // per round: ns of the first send
	last     []int64     // per round: ns of the last arrival
	count    []int64     // per round: deliveries
	dups     int64
}

// wireGen is the open-loop generator and sink collector of one run.
type wireGen struct {
	c                *cluster.Cluster
	conn             *net.UDPConn
	w                *batchio.Writer
	tmpl             [][]byte // per-flow frame prefix: the 24-byte header
	phases           [numPhases]*phaseState
	sendRec, recvRec *recorder
	group            uint64

	sendNs, sendFrames, sendCalls int64
	recvFrames, recvCalls         int64
	badSink                       int64
}

// wireResult is what one wire stage measured.
type wireResult struct {
	launch            []float64 // s per cluster.Launch
	p50, p99          [numPhases]float64
	goodput           float64
	packets           [numPhases]int // deliveries behind each phase's figures
	rounds            int
	lateP99           float64
	behind            []string
	sent, failed      int64
	delivered         int64
	cpuUs, sysShare   float64
	csw               float64
	refsC1, fdShareC1 float64
	sendNsPerPkt      float64
	recvPerCall       float64
}

// runWire launches the chain (several times, for the launch figure),
// then drives a warm-up and the rounds of 40k and 80k pps open-loop and
// window-bounded saturation phases through it, and checks every
// delivery and every hop's error counters.
func runWire(ctx context.Context, clued string, seed int64, tr *tracer) (*wireResult, error) {
	spec := cluster.Spec{
		Shape: cluster.ShapeChain, Nodes: wireNodes, Prefixes: wirePrefixes, Seed: seed,
		Method: core.Simple, Layout: fastpath.LayoutAuto, Workers: 1, BatchIO: true,
	}
	res := &wireResult{}
	rec := tr.recorder(16)
	var ru0 syscall.Rusage
	var c *cluster.Cluster
	for i := 0; i < wireLaunches; i++ {
		if i == wireLaunches-1 {
			if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru0); err != nil {
				return nil, fmt.Errorf("getrusage: %w", err)
			}
		}
		t0 := nowNs()
		var err error
		c, err = cluster.Launch(ctx, clued, spec)
		t1 := nowNs()
		if err != nil {
			return nil, fmt.Errorf("launch: %w", err)
		}
		rec.add(spanLaunch, 0, uint64(i), t0, t1)
		res.launch = append(res.launch, float64(t1-t0)/1e9)
		if i < wireLaunches-1 {
			if err := c.Close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
	}
	err := driveWire(c, spec, seed, tr, res)
	closeErr := c.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	var ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru1); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	user := tvSeconds(ru1.Utime) - tvSeconds(ru0.Utime)
	sys := tvSeconds(ru1.Stime) - tvSeconds(ru0.Stime)
	if res.delivered > 0 {
		res.cpuUs = (user + sys) * 1e6 / float64(res.delivered)
		res.csw = float64(ru1.Nvcsw-ru0.Nvcsw) / float64(res.delivered)
	}
	if user+sys > 0 {
		res.sysShare = sys / (user + sys)
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// driveWire runs the phases against a launched cluster and scrapes it.
func driveWire(c *cluster.Cluster, spec cluster.Spec, seed int64, tr *tracer, res *wireResult) error {
	g, err := newWireGen(c, spec, seed, tr)
	if err != nil {
		return err
	}
	defer g.conn.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.collect()
	}()
	sendErr := g.send()
	// Stop the collector: a read deadline in the past unblocks Recv.
	_ = c.Sink.SetReadDeadline(time.Now())
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}

	res.rounds = len(g.phases[phaseSat].count)
	for p := phaseWarm; p < numPhases; p++ {
		ph := g.phases[p]
		sent, got := ph.sent.Load(), ph.received.Load()
		res.sent += sent
		res.delivered += got
		res.failed += sent - got + ph.dups
		res.packets[p] = int(got)
		switch p {
		case phaseLow, phaseHigh:
			var p50s, p99s []float64
			for _, lat := range ph.lat {
				p50s = append(p50s, percentile(lat, 50))
				p99s = append(p99s, percentile(lat, 99))
			}
			res.p50[p], res.p99[p] = median(p50s), median(p99s)
			late := percentile(ph.late, 99)
			res.lateP99 = max(res.lateP99, late)
			// A p99 send lag past a millisecond means the generator,
			// not the cluster, set the schedule: flag the phase.
			if late > behindUs {
				res.behind = append(res.behind, fmt.Sprintf("%s: generator p99 lag %.0f µs", phaseNames[p], late))
			}
		case phaseSat:
			var rates []float64
			for r, n := range ph.count {
				if span := ph.last[r] - ph.first[r]; span > 0 {
					rates = append(rates, float64(n)/(float64(span)/1e9))
				}
			}
			res.goodput = median(rates)
		}
	}
	res.failed += g.badSink
	if g.sendFrames > 0 {
		res.sendNsPerPkt = float64(g.sendNs) / float64(g.sendFrames)
	}
	if g.recvCalls > 0 {
		res.recvPerCall = float64(g.recvFrames) / float64(g.recvCalls)
	}

	for _, n := range c.Nodes {
		m, err := n.ScrapeMetrics()
		if err != nil {
			return fmt.Errorf("scrape %s: %w", n.Name, err)
		}
		res.failed += int64(m.Value("clued_errors_total", "kind", "malformed"))
		res.failed += int64(m.Value("clued_errors_total", "kind", "no-route"))
		if n.Name == "c1" {
			if cnt := m.Value("clued_refs_per_packet_count"); cnt > 0 {
				res.refsC1 = float64(m.Value("clued_refs_per_packet_sum")) / float64(cnt)
			}
			var total uint64
			outs := m.Outcomes("clued_packets_total")
			for _, v := range outs {
				total += v
			}
			if total > 0 {
				res.fdShareC1 = float64(outs[core.OutcomeFD.String()]) / float64(total)
			}
		}
	}
	return nil
}

// newWireGen draws the flow set and prepares the frame templates. Each
// flow's destination is zipf-drawn from the spec's universe and carries
// the clue an upstream holding the whole universe would stamp.
func newWireGen(c *cluster.Cluster, spec cluster.Spec, seed int64, tr *tracer) (*wireGen, error) {
	u := spec.Universe()
	ut := u.Router("generator", u.Len(), 0).Trie()
	sampler := u.DestSampler(seed, wireZipf)
	g := &wireGen{c: c, sendRec: tr.recorder(1 << 19), recvRec: tr.recorder(1 << 19)}
	src := ip.MustParseAddr("10.0.0.1")
	for f := 0; f < wireFlows; f++ {
		d := sampler.Next()
		bmp, _, ok := ut.Lookup(d, nil)
		if !ok {
			return nil, fmt.Errorf("flow %d: destination %v not routable", f, d)
		}
		h := &header.IPv4{TTL: frameTTL, Protocol: 17, Src: src, Dst: d,
			Clue: &header.ClueOption{Len: bmp.Len()}}
		b, err := h.Marshal(cluster.StampLen)
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", f, err)
		}
		g.tmpl = append(g.tmpl, b)
	}
	rounds := [numPhases]int{phaseWarm: 1, phaseLow: wireRounds, phaseHigh: wireRounds, phaseSat: wireRounds}
	perRound := [numPhases]int{
		phaseWarm: wireFlows,
		phaseLow:  int(wireRateLow * wireRound / time.Second),
		phaseHigh: int(wireRateHigh * wireRound / time.Second),
		phaseSat:  int(maxSatPPS * wireRound / time.Second),
	}
	for p := range g.phases {
		n := rounds[p] * perRound[p]
		ph := &phaseState{seen: make([]bool, n),
			first: make([]int64, rounds[p]), last: make([]int64, rounds[p]), count: make([]int64, rounds[p])}
		if p == phaseLow || p == phaseHigh {
			for r := 0; r < rounds[p]; r++ {
				ph.lat = append(ph.lat, make([]float64, 0, perRound[p]))
			}
			ph.late = make([]float64, 0, n)
		}
		g.phases[p] = ph
	}
	conn, err := net.DialUDP("udp4", nil, c.Head().Addr)
	if err != nil {
		return nil, fmt.Errorf("dial head: %w", err)
	}
	bc := batchio.New(conn)
	bc.SetBatching(spec.BatchIO)
	g.conn, g.w = conn, bc.NewWriter()
	return g, nil
}

// collect reads the sink until its read deadline is poisoned, matching
// each delivery to its phase and sequence number.
func (g *wireGen) collect() {
	bc := batchio.New(g.c.Sink)
	bc.SetBatching(true)
	rd := bc.NewReader()
	bufs := make([][]byte, wireBurst)
	sizes := make([]int, wireBurst)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	for {
		t0 := nowNs()
		k, err := rd.Recv(bufs, sizes)
		now := nowNs()
		if err != nil {
			return
		}
		g.recvRec.add(spanRecv, 0, 0, t0, now)
		g.recvCalls++
		g.recvFrames += int64(k)
		for i := 0; i < k; i++ {
			pkt := bufs[i][:sizes[i]]
			_, _, _, hl, ok := header.PeekIPv4(pkt)
			if !ok || len(pkt)-hl < cluster.StampLen || binary.BigEndian.Uint32(pkt[hl:]) != stampMagic {
				g.badSink++
				continue
			}
			st := pkt[hl:]
			tag := binary.BigEndian.Uint32(st[4:])
			phase, round := int(tag>>24), int(tag>>16&0xff)
			seq := int(binary.BigEndian.Uint32(st[8:]))
			due := int64(binary.BigEndian.Uint64(st[12:]))
			if phase >= numPhases || seq >= len(g.phases[phase].seen) || round >= len(g.phases[phase].count) {
				g.badSink++
				continue
			}
			ph := g.phases[phase]
			if ph.seen[seq] {
				ph.dups++
				continue
			}
			ph.seen[seq] = true
			if ph.lat != nil {
				ph.lat[round] = append(ph.lat[round], float64(now-due)/1e3)
			}
			ph.last[round] = now
			ph.count[round]++
			ph.received.Add(1)
		}
	}
}

// send runs every phase in order on a goroutine locked to its thread,
// whose timer slack is lowered so that short sleeps wake on time.
func (g *wireGen) send() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)

	if err := g.openLoop(phaseWarm, 0, 20_000, time.Duration(wireFlows)*time.Second/20_000); err != nil {
		return err
	}
	for r := 0; r < wireRounds; r++ {
		if err := g.openLoop(phaseLow, r, wireRateLow, wireRound); err != nil {
			return err
		}
		if err := g.openLoop(phaseHigh, r, wireRateHigh, wireRound); err != nil {
			return err
		}
		if err := g.saturate(r, wireRound); err != nil {
			return err
		}
	}
	return nil
}

// frame renders packet seq of a phase's round into dst: the flow's header
// template and a stamp carrying the due time.
func (g *wireGen) frame(dst []byte, phase, round, seq int, due int64) []byte {
	flow := seq % wireFlows
	dst = append(dst[:0], g.tmpl[flow]...)
	return cluster.AppendStamp(dst, uint32(phase)<<24|uint32(round)<<16|uint32(flow), uint32(seq), due)
}

// write sends frames, retrying the unsent tail.
func (g *wireGen) write(frames [][]byte) error {
	g.group++
	for off := 0; off < len(frames); {
		t0 := nowNs()
		n, err := g.w.Send(frames[off:], nil)
		t1 := nowNs()
		g.sendRec.add(spanSend, 0, g.group, t0, t1)
		g.sendNs += t1 - t0
		g.sendCalls++
		g.sendFrames += int64(n)
		off += n
		if err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
	return nil
}

// openLoop sends one round of a phase at pps for dur on a fixed
// schedule, whatever the cluster does: packet i is due at start + i/pps,
// is stamped with that due time, and goes out in the first burst after
// it. Then it waits for the round's deliveries.
func (g *wireGen) openLoop(phase, round, pps int, dur time.Duration) error {
	ph := g.phases[phase]
	frames, scratch := g.buffers()
	interval := 1e9 / float64(pps)
	n := int(int64(pps) * int64(dur) / int64(time.Second))
	base := int(ph.sent.Load())
	start := nowNs() + int64(time.Millisecond)
	ph.first[round] = start
	for i := 0; i < n; {
		now := nowNs()
		due := start + int64(float64(i)*interval)
		if due > now {
			sleepNs(due - now)
			continue
		}
		frames = frames[:0]
		for i < n && len(frames) < wireBurst {
			due := start + int64(float64(i)*interval)
			if due > now {
				break
			}
			frames = append(frames, g.frame(scratch[len(frames)], phase, round, base+i, due))
			if ph.late != nil {
				ph.late = append(ph.late, float64(now-due)/1e3)
			}
			i++
		}
		if err := g.write(frames); err != nil {
			return err
		}
	}
	ph.sent.Add(int64(n))
	g.drain(ph)
	return nil
}

// saturate runs one saturation round: it sends as fast as the window
// allows for dur. At most wireWindow packets are in flight, so the
// generator backs off instead of overrunning the head's receive queue
// and the rate is loss-free.
func (g *wireGen) saturate(round int, dur time.Duration) error {
	ph := g.phases[phaseSat]
	frames, scratch := g.buffers()
	limit := len(ph.seen) / len(ph.count) * (round + 1)
	sent := int(ph.sent.Load())
	start := nowNs()
	ph.first[round] = start
	for end := start + int64(dur); ; {
		now := nowNs()
		if now >= end || sent+wireBurst > limit {
			break
		}
		if int64(sent)-ph.received.Load() > wireWindow-wireBurst {
			sleepNs(20_000)
			continue
		}
		frames = frames[:0]
		for len(frames) < wireBurst {
			frames = append(frames, g.frame(scratch[len(frames)], phaseSat, round, sent, now))
			sent++
		}
		if err := g.write(frames); err != nil {
			return err
		}
	}
	ph.sent.Store(int64(sent))
	g.drain(ph)
	return nil
}

// buffers returns an empty frame batch and the scratch frames it is
// rendered into.
func (g *wireGen) buffers() ([][]byte, [][]byte) {
	scratch := make([][]byte, wireBurst)
	for i := range scratch {
		scratch[i] = make([]byte, 0, frameLen)
	}
	return make([][]byte, 0, wireBurst), scratch
}

// drain waits until every packet of the phase arrived, or until no new
// one arrived for a second (the rest are lost and count as failed).
func (g *wireGen) drain(ph *phaseState) {
	want := ph.sent.Load()
	last, lastAt := ph.received.Load(), time.Now()
	for {
		got := ph.received.Load()
		if got >= want {
			return
		}
		if got != last {
			last, lastAt = got, time.Now()
		} else if time.Since(lastAt) > time.Second {
			return
		}
		sleepNs(100_000)
	}
}

// sleepNs blocks the calling thread for d nanoseconds in nanosleep,
// which honours the thread's timer slack; time.Sleep rounds short sleeps
// up to the runtime timer's granularity.
func sleepNs(d int64) {
	ts := syscall.NsecToTimespec(d)
	_ = syscall.Nanosleep(&ts, nil)
}
