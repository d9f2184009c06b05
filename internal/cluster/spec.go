// Package cluster builds and drives multi-process clued topologies over
// real loopback UDP: deterministic table construction shared by the
// daemons and the simulator, an exec-based launcher with a stdio
// handshake, a Prometheus scraper, and a paced, seeded load generator
// that stamps packets and measures end-to-end latency at the sink.
//
// The same Spec value reproduces the same per-node forwarding tables in
// every process that holds it — the launcher passes only the spec and a
// node name on the command line, and each daemon rebuilds its own slice
// of the topology locally. That is what makes the differential test
// possible: a netsim replay of the identical spec must agree with the
// live cluster packet for packet.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/fib"
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/routing"
	"repro/internal/synth"
)

// Shape selects the cluster topology.
type Shape string

// Topology shapes.
const (
	// ShapeChain is a linear chain c0 → c1 → … → c(n-1); every universe
	// prefix originates at the tail, so all traffic crosses every hop —
	// the Figure 1 path, as separate processes.
	ShapeChain Shape = "chain"
	// ShapeMesh is a Barabási–Albert preferential-attachment graph with
	// prefixes originated round-robin across all nodes; traffic injected
	// at c0 fans out over shortest paths. Mesh nodes hold one clue table
	// each but have several upstream neighbors, so only the Simple
	// method (sound for any clue) is allowed.
	ShapeMesh Shape = "mesh"
)

// meshLinks is the attachment count m of the preferential graph.
const meshLinks = 2

// LearnLimit caps learned clue entries per daemon, matching the
// all-in-one clued chain: every learned clue is kept forever (§3.4), the
// cap keeps an adversarial wire from growing the table without bound.
// The differential test stays well under it so a netsim replay (which is
// uncapped) learns the identical set.
const LearnLimit = 1 << 12

// Spec fully determines a cluster: same spec, same tables, same
// behavior, in every process that holds it.
type Spec struct {
	Shape    Shape
	Nodes    int
	Prefixes int   // universe size (synth.NewModernUniverse)
	Seed     int64 // universe and topology seed
	// Method is the clue method non-head chain nodes run (core.Simple or
	// core.Advance). The head — whose upstream is the generator, not a
	// participating router — always runs Simple, exactly as netsim's ""
	// injection point does. Mesh clusters are Simple-only.
	Method core.Method
	// Layout forces the fastpath trie representation
	// (fastpath.LayoutAuto/Flat/Compressed).
	Layout fastpath.Layout
	// Workers is how many copies of the forwarding loop each daemon runs
	// on its socket (clued -workers); 0 means 1.
	Workers int
	// BatchIO toggles sendmmsg/recvmmsg batching in every daemon and in
	// the generator (false forces one datagram per syscall everywhere —
	// the baseline the cluster benchmark compares against).
	BatchIO bool
}

// Validate reports whether the spec describes a buildable cluster.
func (s Spec) Validate() error {
	switch s.Shape {
	case ShapeChain:
		if s.Nodes < 2 {
			return fmt.Errorf("cluster: chain needs >= 2 nodes, got %d", s.Nodes)
		}
	case ShapeMesh:
		if s.Nodes < meshLinks+1 {
			return fmt.Errorf("cluster: mesh needs >= %d nodes, got %d", meshLinks+1, s.Nodes)
		}
		if s.Method != core.Simple {
			return fmt.Errorf("cluster: mesh clusters are Simple-only (a node has several upstreams but one table; only Simple is sound for all of them)")
		}
	default:
		return fmt.Errorf("cluster: unknown shape %q", s.Shape)
	}
	if s.Prefixes < 1 {
		return fmt.Errorf("cluster: need >= 1 prefix, got %d", s.Prefixes)
	}
	return nil
}

// NodeNames returns the node names in creation order: c0 … c(n-1).
// c0 is always the injection point the generator sends to.
func (s Spec) NodeNames() []string {
	names := make([]string, s.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	return names
}

// Universe returns the prefix universe every table and every generated
// destination is drawn from. Deterministic by Seed; IPv4 (the wire
// format both clued data paths share — v6 rides the same clue logic and
// is exercised by the in-process harnesses).
func (s Spec) Universe() *synth.ModernUniverse {
	return synth.NewModernUniverse(s.Seed, ip.IPv4, s.Prefixes)
}

// Tables builds every node's forwarding table — the same map a netsim
// replay of this spec is constructed from.
func (s Spec) Tables() (map[string]*fib.Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	top := routing.NewTopology()
	var names []string
	switch s.Shape {
	case ShapeChain:
		names = routing.Chain(top, "c", s.Nodes)
	case ShapeMesh:
		var err error
		names, err = routing.PreferentialGraph(top, "c", s.Seed, s.Nodes, meshLinks)
		if err != nil {
			return nil, fmt.Errorf("cluster: mesh topology: %w", err)
		}
	}
	prefs := s.Universe().Prefixes()
	for i, p := range prefs {
		owner := names[len(names)-1] // chain: everything originates at the tail
		if s.Shape == ShapeMesh {
			owner = names[i%len(names)]
		}
		if err := top.Originate(owner, p); err != nil {
			return nil, fmt.Errorf("cluster: originate %v at %s: %w", p, owner, err)
		}
	}
	return top.ComputeTables(), nil
}

// NodeConfig is one daemon's slice of the cluster: its forwarding table
// and the clue-table configuration mirroring netsim's per-upstream
// rules for its (unique) upstream.
type NodeConfig struct {
	Table *fib.Table
	// Upstream is the name of the node whose egress feeds this one (""
	// for the head, whose upstream is the generator). Chain-only; mesh
	// nodes have several upstreams and always run Simple.
	Upstream string
	// Config is ready for core.MustNewTable: method, engine, tries and
	// learning configured exactly as netsim.Router.tableConfig would for
	// this upstream.
	Config core.Config
}

// NodeConfig builds the named node's table and clue configuration. The
// method rule mirrors netsim.Router.tableConfig: Advance only when the
// requested method is Advance AND the upstream is a participating router
// (every cluster node participates; the head's upstream is the
// generator, so the head is always Simple), with the sender predicate
// testing membership in the upstream's prefix trie.
func (s Spec) NodeConfig(name string) (*NodeConfig, error) {
	tables, err := s.Tables()
	if err != nil {
		return nil, err
	}
	tab, ok := tables[name]
	if !ok {
		return nil, fmt.Errorf("cluster: no node %q in %s/%d", name, s.Shape, s.Nodes)
	}
	tr := tab.Trie()
	nc := &NodeConfig{
		Table: tab,
		Config: core.Config{
			Method:     core.Simple,
			Engine:     lookup.NewPatricia(tr),
			Local:      tr,
			Learn:      true,
			LearnLimit: LearnLimit,
		},
	}
	if s.Shape == ShapeChain {
		names := s.NodeNames()
		for i, n := range names {
			if n == name && i > 0 {
				nc.Upstream = names[i-1]
			}
		}
		if s.Method == core.Advance && nc.Upstream != "" {
			upTrie := tables[nc.Upstream].Trie()
			nc.Config.Method = core.Advance
			nc.Config.Sender = func(p ip.Prefix) bool { return upTrie.Contains(p) }
		}
	}
	return nc, nil
}

// ParseLayout maps the CLI spelling to a fastpath layout.
func ParseLayout(s string) (fastpath.Layout, error) {
	switch s {
	case "auto":
		return fastpath.LayoutAuto, nil
	case "flat":
		return fastpath.LayoutFlat, nil
	case "compressed":
		return fastpath.LayoutCompressed, nil
	}
	return 0, fmt.Errorf("cluster: unknown layout %q (auto, flat, compressed)", s)
}

// LayoutName is ParseLayout's inverse, for round-tripping a spec through
// command-line flags.
func LayoutName(l fastpath.Layout) string {
	switch l {
	case fastpath.LayoutFlat:
		return "flat"
	case fastpath.LayoutCompressed:
		return "compressed"
	default:
		return "auto"
	}
}

// ParseMethod maps the CLI spelling to a clue method.
func ParseMethod(s string) (core.Method, error) {
	switch s {
	case "simple":
		return core.Simple, nil
	case "advance":
		return core.Advance, nil
	}
	return 0, fmt.Errorf("cluster: unknown method %q (simple, advance)", s)
}

// MethodName is ParseMethod's inverse.
func MethodName(m core.Method) string {
	if m == core.Advance {
		return "advance"
	}
	return "simple"
}
