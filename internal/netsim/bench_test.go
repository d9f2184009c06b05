package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/ip"
	"repro/internal/routing"
)

// benchNetwork is figure1Network without the *testing.T plumbing, shared
// by the Send benchmarks (the satellite-1 before/after measurement: the
// per-packet lazy-table mutex vs. pre-built tables).
func benchNetwork(chainLen int) (*Network, []string, ip.Addr) {
	top := routing.NewTopology()
	names := routing.Chain(top, "r", chainLen)
	host := ip.MustParseAddr("204.17.33.40")
	if err := routing.NestedOrigination(top, names[chainLen-1], host,
		[]int{8, 12, 16, 20, 24, 28}, []int{-1, chainLen, chainLen * 3 / 4, chainLen / 2, chainLen / 3, 2}); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i, name := range names {
		for k := 0; k < 20; k++ {
			base := ip.AddrFrom32(uint32(20+i*7+k) << 24)
			if err := top.Originate(name, ip.PrefixFrom(base, 8+rng.Intn(17))); err != nil {
				panic(err)
			}
		}
	}
	return New(top.ComputeTables()), names, host
}

// benchDests is a warm all-delivered workload within the host /24, so
// every benchmarked Send follows the full chain.
func benchDests(host ip.Addr, n int) []ip.Addr {
	dests := make([]ip.Addr, n)
	for i := range dests {
		dests[i] = ip.AddrFrom32(host.Uint32()&0xFFFFFF00 | uint32(i%64))
	}
	return dests
}

// BenchmarkNetsimSend measures one warm end-to-end Send through an
// 8-router chain — the satellite-1 microbenchmark. Before pre-built
// tables, every hop paid a mutex lock/unlock plus a map probe under it
// to reach its clue table; after, the table read is a plain map access
// on an immutable map.
func BenchmarkNetsimSend(b *testing.B) {
	for _, fast := range []bool{false, true} {
		name := "interpreted"
		if fast {
			name = "fastpath"
		}
		b.Run(name, func(b *testing.B) {
			n, names, host := benchNetwork(8)
			n.SetFastPath(fast)
			dests := benchDests(host, 64)
			for _, d := range dests { // warm the clue tables
				if _, err := n.Send(names[0], d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Send(names[0], dests[i%len(dests)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetsimSendParallel runs warm Sends from many goroutines: the
// contention view of the same measurement. With the lazy-table mutex,
// every packet at every hop serialized on its router's lock; pre-built
// tables make the per-packet path lock-free all the way down.
func BenchmarkNetsimSendParallel(b *testing.B) {
	for _, fast := range []bool{false, true} {
		name := "interpreted"
		if fast {
			name = "fastpath"
		}
		b.Run(name, func(b *testing.B) {
			n, names, host := benchNetwork(8)
			n.SetFastPath(fast)
			dests := benchDests(host, 64)
			for _, d := range dests {
				if _, err := n.Send(names[0], d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := n.Send(names[0], dests[i%len(dests)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}
