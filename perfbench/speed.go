package main

// The host changes speed under the benchmark. On its 2-vCPU shared host
// (an Intel Xeon at 2 GHz with a 105 MB last-level cache) the same code
// runs up to 1.5× faster or slower for stretches of seconds to minutes,
// as neighbours come and go on the sibling hyperthreads, the caches and
// the memory bus, and a stretch can cover a whole run. Two probes
// follow part of those changes, each for the calls it resembles
// (IQR/median over seeds, "spread", as BENCHMARK.json's bounds are
// checked):
//
//   - aluProbe, a chain of integer multiplies and shifts, follows the
//     lookups. Over half-second buckets of one hop-1m run the hop's rate
//     followed it with a correlation of 0.94, and their ratio spread 0.06
//     where the raw rate spread 0.32. A pointer chase over 64 MiB did not
//     follow the hop (correlation 0.41).
//   - copyProbe, 64 KiB copied within the L2 cache, follows the writer,
//     whose Apply allocates and clones pages. Scaled by it, the median
//     Apply latency spread 0.05–0.07 on hop-1m and 0.09 on churn-100k over
//     five seeds, against 0.14 and 0.25 as timed. The ALU probe and a
//     copy out of 32 MiB followed the writer less (0.09–0.20).
//
// Neither probe follows what the 100k-prefix Advance lookup feels: when
// neighbours take the last-level cache, its rate halves while the probes
// move by a tenth.
//
// Each timed call is followed by its probe, outside the call's time, and
// the figures are scaled to a host that runs the probe at its reference
// rate (see rateSampler.scaled). The probes are the benchmark's own code,
// the same in every commit: a scaled figure moves with the program, and
// with only the part of the host's changes its probe does not see.

// aluSteps is the length of one ALU probe: four independent chains of
// aluSteps xorshift-multiply steps, about 4 µs at aluRef.
const aluSteps = 1000

// aluRef is the ALU probe rate, in steps per second, that scaled lookup
// figures refer to; the host named above ran it at 0.9e9 to 1.5e9.
const aluRef = 1e9

// aluSink keeps the probe's result alive.
var aluSink uint64

// aluProbe runs the ALU probe once and returns its rate in steps per
// second.
func aluProbe() float64 {
	t0 := nowNs()
	a, b, c, d := aluSink|1, aluSink|2, aluSink|3, aluSink|4
	for i := 0; i < aluSteps; i++ {
		a ^= a << 13
		a ^= a >> 7
		a *= 0x9E3779B97F4A7C15
		b ^= b << 13
		b ^= b >> 7
		b *= 0x9E3779B97F4A7C15
		c ^= c << 13
		c ^= c >> 7
		c *= 0x9E3779B97F4A7C15
		d ^= d << 13
		d ^= d >> 7
		d *= 0x9E3779B97F4A7C15
	}
	ns := nowNs() - t0
	aluSink = (a ^ b ^ c ^ d) & 0xff
	return 4 * aluSteps / (float64(max(ns, 1)) / 1e9)
}

// copyRef is the copy probe rate, in bytes per second, that scaled
// writer figures refer to; the same host ran it at 7.5e9 to 12e9.
const copyRef = 10e9

const (
	copyChunk = 16 << 10
	copyLen   = 4 * copyChunk
	copySrc   = 2 * copyLen // with the destination, well inside the L2 cache
)

// copyProbe copies copyLen bytes, in chunks from pseudo-random places in
// a copySrc buffer.
type copyProbe struct {
	src, dst []byte
	at       uint32
}

func newCopyProbe() *copyProbe {
	return &copyProbe{src: make([]byte, copySrc), dst: make([]byte, copyLen)}
}

// run copies once and returns the rate in bytes per second.
func (p *copyProbe) run() float64 {
	t0 := nowNs()
	for i := 0; i < copyLen; i += copyChunk {
		p.at = p.at*1103515245 + 12345
		o := int(p.at>>16) % (copySrc / copyChunk) * copyChunk
		copy(p.dst[i:i+copyChunk], p.src[o:o+copyChunk])
	}
	ns := nowNs() - t0
	return copyLen / (float64(max(ns, 1)) / 1e9)
}
