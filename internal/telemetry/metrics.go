package telemetry

// Default bucket bounds for the three per-packet signals. The refs
// buckets are tuned to the paper's cost model, where the interesting
// distinctions are "exactly one reference" (the Claim-1 optimal case),
// "a few" (a short restricted search) and "a full lookup's worth"; the
// ns buckets cover the compiled fast path (tens of ns) up to interpreted
// full lookups under contention; the batch buckets are powers of two up
// to the sizes ProcessBatch is used with.
var (
	DefaultRefsBuckets  = []uint64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	DefaultNsBuckets    = []uint64{50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 102400}
	DefaultBatchBuckets = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// PacketMetrics bundles the per-packet signals one processing surface
// (a clue table, a compiled snapshot, a router) exports: packets by clue
// outcome, memory references per packet, wall-clock nanoseconds per
// packet, and batch sizes. The outcome ordinals and their label strings
// are supplied by the caller (core.Outcome values and OutcomeLabels in
// this repo), so the package stays decoupled from the packages it
// instruments.
//
// A nil *PacketMetrics records nothing, so instrumented hot paths carry
// no enable/disable branches beyond the nil check inside each method.
type PacketMetrics struct {
	outcomes *CounterVec
	refs     *Histogram
	ns       *Histogram
	batch    *Histogram
}

// NewPacketMetrics registers the bundle under prefix: per-outcome
// counters prefix_packets_total{outcome=...}, and histograms
// prefix_refs_per_packet, prefix_ns_per_packet, prefix_batch_size.
// constLabels (engine, discipline, router, ...) are attached to every
// series.
func NewPacketMetrics(r *Registry, prefix string, outcomeLabels []string, constLabels ...Label) *PacketMetrics {
	return &PacketMetrics{
		outcomes: r.NewCounterVec(prefix+"_packets_total",
			"packets processed, by clue outcome", "outcome", outcomeLabels, constLabels...),
		refs: r.NewHistogram(prefix+"_refs_per_packet",
			"memory references charged per packet (the paper's cost model)", DefaultRefsBuckets, constLabels...),
		ns: r.NewHistogram(prefix+"_ns_per_packet",
			"wall-clock nanoseconds per packet", DefaultNsBuckets, constLabels...),
		batch: r.NewHistogram(prefix+"_batch_size",
			"packets per batch: one ProcessBatch call, or one daemon socket receive", DefaultBatchBuckets, constLabels...),
	}
}

// Record counts one packet: its outcome ordinal and the memory
// references it was charged.
//
//cluevet:hotpath
func (m *PacketMetrics) Record(outcome int, refs uint64) {
	if m == nil {
		return
	}
	m.outcomes.Inc(outcome)
	m.refs.Observe(refs)
}

// ObserveNs records one packet's wall-clock cost. It is separate from
// Record because only callers that own a clock (the daemon, not the
// simulators) can charge it.
//
//cluevet:hotpath
func (m *PacketMetrics) ObserveNs(ns uint64) {
	if m == nil {
		return
	}
	m.ns.Observe(ns)
}

// ObserveBatch records one batch's size.
//
//cluevet:hotpath
func (m *PacketMetrics) ObserveBatch(n uint64) {
	if m == nil {
		return
	}
	m.batch.Observe(n)
}

// OutcomeCount returns the packets recorded with outcome ordinal i.
func (m *PacketMetrics) OutcomeCount(i int) uint64 {
	if m == nil {
		return 0
	}
	return m.outcomes.Value(i)
}

// Packets returns the total packets recorded (the sum over outcomes).
func (m *PacketMetrics) Packets() uint64 {
	if m == nil {
		return 0
	}
	var sum uint64
	for i := 0; i < m.outcomes.Len(); i++ {
		sum += m.outcomes.Value(i)
	}
	return sum
}

// Refs returns the total memory references recorded across all packets.
func (m *PacketMetrics) Refs() uint64 {
	if m == nil {
		return 0
	}
	return m.refs.Sum()
}

// Reset zeroes the bundle (counters and histograms).
func (m *PacketMetrics) Reset() {
	if m == nil {
		return
	}
	m.outcomes.Reset()
	m.refs.Reset()
	m.ns.Reset()
	m.batch.Reset()
}
