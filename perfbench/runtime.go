package main

import (
	"runtime/metrics"
	"time"
)

// epoch is the benchmark's clock origin: every span and stamp is
// monotonic nanoseconds since it.
var epoch = time.Now()

// nowNs reads the benchmark clock.
func nowNs() int64 { return int64(time.Since(epoch)) }

// runtimeSample is a reading of the benchmark process's own Go runtime
// counters.
type runtimeSample struct {
	gcCycles   float64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
	allocBytes float64
}

// runtimeDelta is the change between two samples.
type runtimeDelta = runtimeSample

var runtimeKeys = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: val(0), gcCPU: val(1), totalCPU: val(2), allocBytes: val(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		allocBytes: a.allocBytes - b.allocBytes,
	}
}

// gcFraction is the share of the process's CPU time spent in the GC.
func (d runtimeDelta) gcFraction() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}
