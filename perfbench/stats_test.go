package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {99, 9.91}, {90, 9.1},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
		{[]float64{2.5, 2.5, 2.5}, [3]float64{2.5, 2.5, 2.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one sample are not NaN")
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestSampleCounts(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
		ok   bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{100, 50, 50, true},
		{19, 50, 9, false},
		{0, 99, 0, false},
		{5000, 99, 50, true},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
		if got := supported(c.n, c.p); got != c.ok {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestRateSampler(t *testing.T) {
	r := newRateSampler(0, 1, 0, 1)
	// Ten calls of 100 ns at 1 … 10 work per ns: 1e9 … 10e9 per second.
	// The inclusive 90th percentile lies a tenth of the way from 9e9 to
	// 10e9. A call that took no measurable time counts in the totals only.
	for i := 1; i <= 10; i++ {
		r.add(float64(100*i), 100, 1)
	}
	r.add(50, 0, 1)
	if r.samples() != 10 {
		t.Fatalf("samples = %d, want 10", r.samples())
	}
	if got := r.fast(); !near(got, 9.1e9) {
		t.Errorf("fast = %v, want 9.1e9", got)
	}
	if got := r.overall(); !near(got, 5550/1000e-9) {
		t.Errorf("overall = %v, want %v", got, 5550/1000e-9)
	}
	empty := newRateSampler(0, 1, 1, 1)
	empty.add(5, 0, 1)
	if empty.samples() != 1 || empty.fast() != 0 {
		t.Errorf("no timed call: samples %d fast %v", empty.samples(), empty.fast())
	}
	// Recording within the window the sampler was sized for never
	// allocates: the hop's allocations per packet must stay 0.
	w := newRateSampler(time.Second, time.Millisecond, 1, 1)
	if n := testing.AllocsPerRun(100, func() { w.add(1, 1, 1) }); n != 0 {
		t.Errorf("add allocates %v times per call", n)
	}
}

func TestRateSamplerGroups(t *testing.T) {
	r := newRateSampler(0, 1, 4, 1)
	for i := 0; i < 11; i++ {
		r.add(1, 1, 1)
	}
	// 11 calls in groups of 4: the remainder of 3 joins the second group.
	if got := r.groups(); len(got) != 2 || got[0] != [2]int{0, 4} || got[1] != [2]int{4, 11} {
		t.Errorf("groups = %v, want [[0 4] [4 11]]", got)
	}
	few := newRateSampler(0, 1, 4, 1)
	few.add(1, 1, 1)
	if got := few.groups(); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Errorf("groups of one call = %v", got)
	}
}

func TestRateSamplerScaled(t *testing.T) {
	const ref = 1e9
	r := newRateSampler(0, 1, 2, ref)
	// Three groups of two calls. The host runs the probe at the
	// reference rate, then at half, then at the reference again; the
	// calls follow it. Scaled, every group reads the same.
	for _, c := range []struct {
		work  float64
		ns    int64
		speed float64
	}{
		{100, 100, ref}, {300, 100, ref},
		{50, 100, ref / 2}, {150, 100, ref / 2},
		{100, 100, ref}, {300, 100, ref},
	} {
		r.add(c.work, c.ns, c.speed)
	}
	// Per group the 90th percentile of 1e9 and 3e9 is 2.8e9.
	if got := r.scaled(); !near(got, 2.8e9) {
		t.Errorf("scaled = %v, want 2.8e9", got)
	}
	// 400 work in 200 ns per group at the reference speed: 2e9.
	if got := r.scaledTotal(); !near(got, 2e9) {
		t.Errorf("scaledTotal = %v, want 2e9", got)
	}
	// Every call took 100 ns; at half speed that is 50 ns at the
	// reference.
	want := []float64{1e-4, 1e-4, 5e-5, 5e-5, 1e-4, 1e-4}
	got := r.scaledMs()
	if len(got) != len(want) {
		t.Fatalf("scaledMs = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("scaledMs = %v, want %v", got, want)
		}
	}
	// One group with a call a hundred times slower does not move the
	// median of the groups' rates.
	r.add(100, 100, ref)
	r.add(100, 10_000, ref)
	if got := r.scaledTotal(); !near(got, 2e9) {
		t.Errorf("scaledTotal with one slow group = %v, want 2e9", got)
	}
	// A group's probe rate is its fast percentile, so one probe a
	// preemption slowed changes nothing.
	p := newRateSampler(0, 1, 10, ref)
	for i := 0; i < 10; i++ {
		s := ref
		if i == 3 {
			s = ref / 5
		}
		p.add(100, 100, s)
	}
	if got := p.scaled(); !near(got, 1e9) {
		t.Errorf("scaled with one slowed probe = %v, want 1e9", got)
	}
}

func TestProbes(t *testing.T) {
	cp := newCopyProbe()
	for name, f := range map[string]func() float64{"alu": aluProbe, "copy": cp.run} {
		if s := f(); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			t.Errorf("%s probe = %v, want a positive rate", name, s)
		}
		if n := testing.AllocsPerRun(100, func() { f() }); n != 0 {
			t.Errorf("%s probe allocates %v times per call", name, n)
		}
	}
}
