package analysis

import "testing"

const goShutdownSrc = `package workers

//cluevet:goroutines

import (
	"context"
	"sync"
)

type engine struct {
	wg sync.WaitGroup
	ch chan int
}

func (e *engine) start(ctx context.Context) {
	go e.leaky() // no shutdown edge anywhere: reported

	go func() { // anonymous spinner, no edge: reported
		for {
			_ = 1
		}
	}()

	go func() { // WaitGroup.Done: clean
		defer e.wg.Done()
	}()

	go e.worker() // channel range, one call deep: clean

	go e.outer() // channel receive, two calls deep: clean

	go e.run(ctx) // context threaded in: clean
}

func spawnValue(ctx context.Context, fn func(context.Context)) {
	go fn(ctx) // opaque entry point, but a ctx argument: clean
}

func (e *engine) leaky() {
	for {
		_ = 1
	}
}

func (e *engine) worker() {
	for range e.ch {
	}
}

func (e *engine) outer() { e.inner() }

func (e *engine) inner() { <-e.ch }

func (e *engine) run(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-e.ch:
	}
}
`

func TestGoroutineShutdown(t *testing.T) {
	got := runOne(t, GoroutineShutdown, DefaultConfig(), fixture{path: "test/workers", src: goShutdownSrc})
	checkDiags(t, got, []string{
		"goroutine has no shutdown edge",
		"goroutine has no shutdown edge",
	})
}

// Without the //cluevet:goroutines directive or a Config entry the
// package is not audited at all.
func TestGoroutineShutdownNotAudited(t *testing.T) {
	src := `package quiet

func spin() {
	go func() {
		for {
			_ = 1
		}
	}()
}
`
	got := runOne(t, GoroutineShutdown, DefaultConfig(), fixture{path: "test/quiet", src: src})
	checkDiags(t, got, nil)
}

// Config.GoroutinePackages opts a package in without touching its
// source, the way cmd/clued is enrolled.
func TestGoroutineShutdownConfigOptIn(t *testing.T) {
	src := `package conf

func spin() {
	go func() {
		for {
			_ = 1
		}
	}()
}
`
	cfg := DefaultConfig()
	cfg.GoroutinePackages["test/conf"] = true
	got := runOne(t, GoroutineShutdown, cfg, fixture{path: "test/conf", src: src})
	checkDiags(t, got, []string{"goroutine has no shutdown edge"})
}

// A deliberate process-lifetime goroutine documents itself with
// //cluevet:ignore on the go line.
func TestGoroutineShutdownIgnore(t *testing.T) {
	src := `package forever

//cluevet:goroutines

func debugListener() {
	//cluevet:ignore - debug listener, dies with the process
	go func() {
		for {
			_ = 1
		}
	}()
}
`
	got := runOne(t, GoroutineShutdown, DefaultConfig(), fixture{path: "test/forever", src: src})
	checkDiags(t, got, nil)
}

// An atomic.Bool stop flag is a shutdown edge.
func TestGoroutineShutdownStopFlag(t *testing.T) {
	src := `package stopflag

//cluevet:goroutines

import "sync/atomic"

type loop struct{ stop atomic.Bool }

func (l *loop) start() {
	go func() {
		for !l.stop.Load() {
			_ = 1
		}
	}()
}
`
	got := runOne(t, GoroutineShutdown, DefaultConfig(), fixture{path: "test/stopflag", src: src})
	checkDiags(t, got, nil)
}
