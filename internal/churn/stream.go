// Package churn is the BGP churn replay harness: it synthesizes bursty,
// BGP-shaped route-update streams over internal/synth tables — seeded
// and deterministic like internal/fault — and replays them through the
// internal/bgp update adapter into a live fastpath.RCU while forwarding
// goroutines run packets at full rate, measuring how
// long an update takes to become visible to the read side (update
// issued → first packet observing it) and proving, by a post-quiesce
// differential sweep, that the incrementally patched snapshot ends up
// identical to a full recompile of a reference table that absorbed the
// same stream.
//
// The stream shape follows what BGP beacon studies observe: a steady
// trickle of small UPDATEs, a heavy tail of large bursts (session
// resets, path hunting), a hot set of flapping prefixes that produce a
// disproportionate share of events, and withdrawals running at a
// fraction of announcements.
package churn

import (
	"math/rand"

	"repro/internal/bgp"
	"repro/internal/fib"
	"repro/internal/ip"
	"repro/internal/synth"
)

// StreamConfig shapes the synthetic update stream. Zero values pick the
// defaults noted on each field.
type StreamConfig struct {
	Seed int64
	// MeanBurst is the mean number of route updates per burst (default 8).
	MeanBurst int
	// StormEvery makes every Nth burst a storm of ~8× MeanBurst updates,
	// modeling session resets and path hunting (default 16; ≤0 disables).
	StormEvery int
	// WithdrawRatio is the fraction of non-flap updates that withdraw a
	// previously announced prefix (default 0.3).
	WithdrawRatio float64
	// FlapRatio is the fraction of updates drawn from the hot flap set
	// (default 0.4): BGP beacon studies attribute most churn to a small
	// set of unstable prefixes.
	FlapRatio float64
	// FlapSet is the size of the hot set (default 32).
	FlapSet int
	// SenderRatio is the fraction of bursts that also carry updates for
	// the SENDING neighbor's table — the stream that moves Advance-method
	// candidate sets (default 0.25).
	SenderRatio float64
	// MinLen/MaxLen bound announced prefix lengths (defaults 16..26 for
	// IPv4, 24..56 for IPv6).
	MinLen, MaxLen int
	// Hops is how many distinct next-hop payloads announcements draw from
	// (default 16).
	Hops int
}

func (c *StreamConfig) fill(fam ip.Family) {
	if c.MeanBurst <= 0 {
		c.MeanBurst = 8
	}
	if c.StormEvery == 0 {
		c.StormEvery = 16
	}
	if c.WithdrawRatio == 0 {
		c.WithdrawRatio = 0.3
	}
	if c.FlapRatio == 0 {
		c.FlapRatio = 0.4
	}
	if c.FlapSet <= 0 {
		c.FlapSet = 32
	}
	if c.SenderRatio == 0 {
		c.SenderRatio = 0.25
	}
	if c.MinLen == 0 {
		if fam == ip.IPv4 {
			c.MinLen = 16
		} else {
			c.MinLen = 24
		}
	}
	if c.MaxLen == 0 {
		if fam == ip.IPv4 {
			c.MaxLen = 26
		} else {
			c.MaxLen = 56
		}
	}
	if c.Hops <= 0 {
		c.Hops = 16
	}
}

// Event is one replay step: an UPDATE for the receiving router's own
// table and (usually empty) one for its upstream neighbor's mirror.
type Event struct {
	Local  bgp.Update
	Sender bgp.Update
}

// Updates counts the route changes the event carries.
func (e Event) Updates() int {
	return len(e.Local.Withdrawn) + len(e.Local.Announced) +
		len(e.Sender.Withdrawn) + len(e.Sender.Announced)
}

// flap is one hot prefix and whether it is currently announced.
type flap struct {
	p  ip.Prefix
	up bool
}

// Stream deterministically generates BGP-shaped update bursts. Two
// streams with the same config and sender table produce the same
// sequence — replays are reproducible end to end.
type Stream struct {
	cfg        StreamConfig
	rng        *rand.Rand
	dests      []ip.Addr
	live       []ip.Prefix
	liveAt     map[ip.Prefix]int // index into live
	senderLive []ip.Prefix
	flaps      []flap
	bursts     int
}

// NewStream builds a generator whose destinations (and hence announced
// prefixes) are drawn from the sender table's address space, so updates
// land where the forwarded traffic actually goes.
func NewStream(cfg StreamConfig, sender *fib.Table) *Stream {
	cfg.fill(sender.Family())
	s := &Stream{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		liveAt: make(map[ip.Prefix]int),
	}
	w := synth.NewWorkload(cfg.Seed+1, sender)
	for i := 0; i < 4096; i++ {
		s.dests = append(s.dests, w.Next())
	}
	for len(s.flaps) < cfg.FlapSet {
		p := s.randomPrefix()
		s.flaps = append(s.flaps, flap{p: p})
	}
	return s
}

func (s *Stream) randomPrefix() ip.Prefix {
	d := s.dests[s.rng.Intn(len(s.dests))]
	l := s.cfg.MinLen + s.rng.Intn(s.cfg.MaxLen-s.cfg.MinLen+1)
	return ip.PrefixFrom(d, l)
}

func (s *Stream) hop() int { return 1 + s.rng.Intn(s.cfg.Hops) }

// Next produces one burst. Burst sizes are geometric with mean
// cfg.MeanBurst, with every cfg.StormEvery-th burst inflated ~8× — the
// heavy tail of real update traces.
func (s *Stream) Next() Event {
	s.bursts++
	n := s.geometric(s.cfg.MeanBurst)
	if s.cfg.StormEvery > 0 && s.bursts%s.cfg.StormEvery == 0 {
		n = s.geometric(8 * s.cfg.MeanBurst)
	}
	var ev Event
	for i := 0; i < n; i++ {
		switch {
		case s.rng.Float64() < s.cfg.FlapRatio:
			f := &s.flaps[s.rng.Intn(len(s.flaps))]
			if f.up {
				ev.Local.Withdrawn = append(ev.Local.Withdrawn, f.p)
			} else {
				ev.Local.Announced = append(ev.Local.Announced, bgp.Announcement{Prefix: f.p, NextHop: s.hop()})
			}
			f.up = !f.up
		case s.rng.Float64() < s.cfg.WithdrawRatio && len(s.live) > 0:
			i := s.rng.Intn(len(s.live))
			p := s.live[i]
			last := len(s.live) - 1
			s.live[i] = s.live[last]
			s.liveAt[s.live[i]] = i
			s.live = s.live[:last]
			delete(s.liveAt, p)
			ev.Local.Withdrawn = append(ev.Local.Withdrawn, p)
		default:
			p := s.randomPrefix()
			if _, ok := s.liveAt[p]; !ok {
				s.liveAt[p] = len(s.live)
				s.live = append(s.live, p)
			}
			ev.Local.Announced = append(ev.Local.Announced, bgp.Announcement{Prefix: p, NextHop: s.hop()})
		}
	}
	if s.rng.Float64() < s.cfg.SenderRatio {
		k := 1 + s.rng.Intn(3)
		for i := 0; i < k; i++ {
			if len(s.senderLive) > 0 && s.rng.Float64() < s.cfg.WithdrawRatio {
				j := s.rng.Intn(len(s.senderLive))
				p := s.senderLive[j]
				s.senderLive = append(s.senderLive[:j], s.senderLive[j+1:]...)
				ev.Sender.Withdrawn = append(ev.Sender.Withdrawn, p)
			} else {
				p := s.randomPrefix()
				s.senderLive = append(s.senderLive, p)
				ev.Sender.Announced = append(ev.Sender.Announced, bgp.Announcement{Prefix: p, NextHop: s.hop()})
			}
		}
	}
	return ev
}

// geometric draws from a geometric distribution with the given mean
// (minimum 1).
func (s *Stream) geometric(mean int) int {
	if mean <= 1 {
		return 1
	}
	n := 1
	p := 1.0 / float64(mean)
	for s.rng.Float64() > p && n < 64*mean {
		n++
	}
	return n
}
