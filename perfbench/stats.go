package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of raw samples by
// linear interpolation between the two closest ranks (the "inclusive"
// definition: the 0th is the minimum, the 100th the maximum). It sorts a
// copy, so the caller's order is kept. An empty input yields NaN.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is percentile over an already sorted slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// quartiles returns the three cut points that split the samples into
// four groups, computed exactly as Python's
// statistics.quantiles(values, n=4) does with its default "exclusive"
// method (including its extrapolation past the extremes on tiny
// inputs), so that the spreads this benchmark reports are the ones a
// Python check computes. It needs at least two samples.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	if len(samples) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure a metric's bound is compared against.
func spread(samples []float64) float64 {
	q1, q2, q3 := quartiles(samples)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// beyond is how many of n samples lie strictly above the p-th percentile
// rank: a percentile is only worth reporting when at least ten samples
// lie beyond it.
func beyond(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	k := n - int(math.Ceil(float64(n)*p/100))
	if k < 0 {
		return 0
	}
	return k
}

// supported reports whether the p-th percentile of n samples has at least
// ten samples beyond it.
func supported(n int, p float64) bool { return beyond(n, p) >= 10 }

// fastPercentile is the percentile of per-call rates a throughput
// figure takes within each group of calls. Preemptions, GC mark phases
// and bursts of neighbour load only ever slow a call down; the 90th
// percentile is the rate a call reaches when little interferes.
const fastPercentile = 90

// rateSampler records every call it is given: the call's rate (work
// done per second of its own time), its time, and the rate of the speed
// probe run right after it (see speed.go).
type rateSampler struct {
	calls  []float64
	nanos  []int64
	speeds []float64
	group  int     // calls per group when scaling to the reference speed
	ref    float64 // the probe's reference rate
	totalW float64
	totalN int64
}

// newRateSampler makes room for the calls of a window of the given
// length, at one call per minCall or slower, so that recording does not
// allocate inside the window. Scaled figures refer to a probe rate of
// ref and are taken over groups of group consecutive calls.
func newRateSampler(window, minCall time.Duration, group int, ref float64) *rateSampler {
	n := max(1024, int(window/minCall))
	return &rateSampler{calls: make([]float64, 0, n), nanos: make([]int64, 0, n),
		speeds: make([]float64, 0, n), group: group, ref: ref}
}

// add records work done in ns nanoseconds by one call, and the probe
// rate measured next to it. A call too short to time counts in the
// totals only.
func (r *rateSampler) add(work float64, ns int64, speed float64) {
	r.totalW += work
	r.totalN += ns
	if ns > 0 {
		r.calls = append(r.calls, work/(float64(ns)/1e9))
		r.nanos = append(r.nanos, ns)
		r.speeds = append(r.speeds, speed)
	}
}

// fast is the fastPercentile of the per-call rates, or the overall rate
// when no call was recorded.
func (r *rateSampler) fast() float64 {
	if len(r.calls) == 0 {
		return r.overall()
	}
	return percentile(r.calls, fastPercentile)
}

// overall is total work over total busy time.
func (r *rateSampler) overall() float64 {
	if r.totalN == 0 {
		return 0
	}
	return r.totalW / (float64(r.totalN) / 1e9)
}

// samples is the number of calls behind fast.
func (r *rateSampler) samples() int { return max(1, len(r.calls)) }

// groups cuts the recorded calls into runs of r.group; the last run
// absorbs a remainder shorter than a group. With fewer calls than a
// group, all of them form one.
func (r *rateSampler) groups() [][2]int {
	n, g := len(r.calls), max(1, r.group)
	var out [][2]int
	for i := 0; i < n; i += g {
		end := i + g
		if n-end < g {
			end = n
		}
		out = append(out, [2]int{i, end})
		if end == n {
			break
		}
	}
	return out
}

// slowdown is how much slower than the reference the host ran one group
// of calls: r.ref over the fastPercentile of the group's probe rates, as
// a probe, too, is only ever slowed by interference. A group spans
// milliseconds, so its probes see the host as its calls saw it.
func (r *rateSampler) slowdown(g [2]int) float64 {
	return r.ref / percentile(r.speeds[g[0]:g[1]], fastPercentile)
}

// scaled is the rate of alike calls at the reference speed: for each
// group, the fastPercentile of its per-call rates times its slowdown;
// the figure is the median over the groups.
func (r *rateSampler) scaled() float64 {
	var per []float64
	for _, g := range r.groups() {
		per = append(per, percentile(r.calls[g[0]:g[1]], fastPercentile)*r.slowdown(g))
	}
	return median(per)
}

// scaledTotal is the rate of calls of unequal size at the reference
// speed: for each group, its total work over its total time, times its
// slowdown; the figure is the median over the groups. A rare call that
// takes a hundred times the others (Apply's recompile) moves it no more
// than any other group.
func (r *rateSampler) scaledTotal() float64 {
	var per []float64
	for _, g := range r.groups() {
		var w, ns float64
		for i := g[0]; i < g[1]; i++ {
			w += r.calls[i] * float64(r.nanos[i]) / 1e9
			ns += float64(r.nanos[i])
		}
		per = append(per, w/(ns/1e9)*r.slowdown(g))
	}
	return median(per)
}

// scaledMs is every call's time in milliseconds at the reference speed,
// in the order of the calls.
func (r *rateSampler) scaledMs() []float64 {
	out := make([]float64, 0, len(r.calls))
	for _, g := range r.groups() {
		f := r.slowdown(g)
		for i := g[0]; i < g[1]; i++ {
			out = append(out, float64(r.nanos[i])/1e6/f)
		}
	}
	return out
}
