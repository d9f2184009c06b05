package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batchio"
	"repro/internal/telemetry"
)

func testRouter(t *testing.T, workers int) *udpRouter {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot open loopback sockets in this environment: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &udpRouter{
		name:    "t0",
		conn:    conn,
		bconn:   batchio.New(conn),
		workers: workers,
		tel:     newRouterTel(telemetry.NewRegistry(), "t0", workers),
		tracer:  telemetry.NewHopTracer(16),
		peers:   map[string]*peerLink{},
	}
}

// TestDeadPeerDoesNotStallLivePeers is the regression test for the
// inline-sleep backoff bug: a peer whose sends fail must shed its own
// traffic (drop-and-count, backoff window) without reducing goodput to
// live peers sharing the worker. The old sendOne slept 1+4+16 ms in the
// worker loop per failing packet — 200 failing frames head-of-line
// blocked everything behind them for over four seconds.
func TestDeadPeerDoesNotStallLivePeers(t *testing.T) {
	r := testRouter(t, 1)
	w := r.bconn.NewWriter()

	liveRx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot open loopback sockets: %v", err)
	}
	defer liveRx.Close()
	var liveGot atomic.Int64
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := liveRx.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n > 0 {
				liveGot.Add(1)
			}
		}
	}()

	live := &peerLink{name: "live", addr: liveRx.LocalAddr().(*net.UDPAddr)}
	dead := &peerLink{name: "dead", addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}}
	var deadAttempts atomic.Int64
	r.sendHook = func(p *peerLink, frames [][]byte) (int, error) {
		if p == dead {
			deadAttempts.Add(1)
			return 0, errors.New("peer down")
		}
		return w.Send(frames, p.addr)
	}

	const rounds = 200
	eg := r.newEgress(w)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		eg.Add(live, []byte(fmt.Sprintf("live-%d", i)))
		eg.Add(dead, []byte(fmt.Sprintf("dead-%d", i)))
		eg.Flush()
	}
	elapsed := time.Since(start)

	// The old inline backoff slept >= 21 ms per failing frame: 200 frames
	// is >= 4.2 s. The non-blocking path does no sleeping at all; even a
	// slow CI machine finishes orders of magnitude under the old floor.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("sending with a dead peer took %v — worker loop is being stalled", elapsed)
	}

	// Goodput to the live peer is unaffected: every frame arrives.
	deadline := time.Now().Add(5 * time.Second)
	for liveGot.Load() < rounds && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := liveGot.Load(); got != rounds {
		t.Fatalf("live peer received %d of %d frames", got, rounds)
	}

	// Every dead frame is accounted: abandoned after retries (send-fail)
	// or dropped inside a backoff window (send-drop) — none silently lost.
	fail, drop := r.tel.sendFail.Value(), r.tel.sendDrop.Value()
	if fail+drop != rounds {
		t.Fatalf("dead frames accounted %d (send-fail) + %d (send-drop) = %d, want %d",
			fail, drop, fail+drop, rounds)
	}
	// The backoff window must actually suppress attempts: without it the
	// hook would be called (1+retries) times per round.
	if drop == 0 {
		t.Error("backoff window never engaged: zero send-drop")
	}
	if max := int64(rounds * (1 + sendRetries)); deadAttempts.Load() >= max {
		t.Errorf("dead peer attempted %d writes, want fewer than %d (suppression)", deadAttempts.Load(), max)
	}
}

// TestShutdownUnderIdleLatency pins the event-driven shutdown: an idle
// router (readers parked in the kernel, no deadline polling) must exit
// every copy of its serve loop well under the old 200 ms poll interval
// once the context is canceled and the socket unblocked.
func TestShutdownUnderIdleLatency(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := testRouter(t, workers)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			r.start(ctx, &wg)
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			// Let the readers park in a blocking read.
			time.Sleep(50 * time.Millisecond)
			start := time.Now()
			cancel()
			r.unblock()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("serve did not exit after cancel+unblock")
			}
			if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
				t.Fatalf("idle shutdown took %v, want well under the old 200 ms poll", elapsed)
			}
		})
	}
}
