package main

import (
	"fmt"
	"testing"
)

func TestEgressGroupsByKey(t *testing.T) {
	var got []string
	e := NewEgress[string, int](0, func(k string, vs []int) {
		got = append(got, fmt.Sprint(k, vs))
	})
	e.Add("a", 1)
	e.Add("b", 2)
	e.Add("a", 3)
	e.Add("c", 4)
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	e.Flush()
	want := []string{"a[1 3]", "b[2]", "c[4]"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flush order/content = %v, want %v", got, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after Flush = %d", e.Pending())
	}
	// Second cycle reuses storage and the same ordering rule.
	got = nil
	e.Add("b", 5)
	e.Add("a", 6)
	e.Flush()
	want = []string{"b[5]", "a[6]"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second flush = %v, want %v", got, want)
	}
}

func TestEgressMaxAutoFlush(t *testing.T) {
	var flushes [][]int
	e := NewEgress[int, int](3, func(_ int, vs []int) {
		flushes = append(flushes, append([]int(nil), vs...))
	})
	for i := 1; i <= 7; i++ {
		e.Add(0, i)
	}
	// 7 adds at max 3: two auto-flushes of 3, one item pending.
	if len(flushes) != 2 {
		t.Fatalf("auto-flushes = %d, want 2", len(flushes))
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Flush()
	if len(flushes) != 3 || len(flushes[2]) != 1 || flushes[2][0] != 7 {
		t.Fatalf("final flush = %v", flushes)
	}
	// A key auto-flushed away must not leave a stale order entry.
	e.Flush()
	if len(flushes) != 3 {
		t.Fatalf("empty Flush delivered something: %v", flushes)
	}
}

func TestEgressFlushEmpty(t *testing.T) {
	calls := 0
	e := NewEgress[string, int](0, func(string, []int) { calls++ })
	e.Flush()
	if calls != 0 {
		t.Fatalf("flush callback ran %d times on an empty Egress", calls)
	}
}

// TestEgressSteadyStateAllocs pins the reuse contract: after warmup,
// Add+Flush cycles allocate nothing.
func TestEgressSteadyStateAllocs(t *testing.T) {
	e := NewEgress[int, int](0, func(int, []int) {})
	cycle := func() {
		for k := 0; k < 4; k++ {
			for v := 0; v < 16; v++ {
				e.Add(k, v)
			}
		}
		e.Flush()
	}
	cycle() // warmup grows the map and slices
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state Add/Flush allocates %.1f per cycle, want 0", avg)
	}
}
