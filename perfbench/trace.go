package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Span names: one per layer call the benchmark times from outside.
const (
	spanLaunch  = "cluster.Launch"
	spanSend    = "batchio.Writer.Send"
	spanRecv    = "batchio.Reader.Recv"
	spanHop     = "hop.batch"
	spanPeek    = "header.PeekIPv4"
	spanLookup  = "fastpath.Snapshot.ProcessBatch"
	spanRewrite = "header.RewriteClueIPv4"
	spanRead    = "churn.read_batch"
	spanApply   = "fastpath.RCU.Apply"
	spanEdit    = "core.Table.Update"
	spanGen     = "synth.NewModernUniverse"
	spanPre     = "core.Table.Preprocess"
	spanCompile = "fastpath.CompileLayout"
	spanWarm    = "core.Table.Affected"
)

// span is one timed layer call. Parent and ID are indexes (+1) into the
// owning recorder, so parent links never cross goroutines; Group ties
// together the spans of one batch, packet phase or route event.
type span struct {
	Name   string
	ID     int32
	Parent int32
	Group  uint64
	Start  int64 // ns since the benchmark epoch
	End    int64
}

// recorder holds the spans of one goroutine in a preallocated slice:
// recording never allocates and needs no lock. A nil recorder, or one
// whose capacity is used up, records nothing (the drop is counted).
type recorder struct {
	spans   []span
	dropped int
}

// tracer owns one recorder per goroutine that records spans; the spans
// stay in memory until write. A nil tracer traces nothing.
type tracer struct {
	recs []*recorder
}

// recorder returns a fresh recorder with room for capacity spans. On a
// nil tracer it returns nil, which records nothing.
func (t *tracer) recorder(capacity int) *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{spans: make([]span, 0, capacity)}
	t.recs = append(t.recs, r)
	return r
}

// add records a complete span and returns its ID (0 when not recorded).
func (r *recorder) add(name string, parent int32, group uint64, start, end int64) int32 {
	if r == nil {
		return 0
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Group: group, Start: start, End: end})
	return id
}

// layerTime is the time summary of one span name.
type layerTime struct {
	Count int   `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// summary derives per-name totals and self time: a span's self time is
// its duration minus the part of it its child spans cover.
func (t *tracer) summary() map[string]*layerTime {
	out := map[string]*layerTime{}
	if t == nil {
		return out
	}
	for _, r := range t.recs {
		children := make(map[int32][][2]int64)
		for _, s := range r.spans {
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		}
		for _, s := range r.spans {
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTime{}
				out[s.Name] = lt
			}
			d := s.End - s.Start
			lt.Count++
			lt.Total += d
			lt.Self += d - covered(s.Start, s.End, children[s.ID])
		}
	}
	return out
}

// covered is the length of [start, end) covered by the union of the
// given intervals.
func covered(start, end int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := start
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], end)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// dropped is how many spans did not fit their recorder.
func (t *tracer) dropped() int {
	n := 0
	if t != nil {
		for _, r := range t.recs {
			n += r.dropped
		}
	}
	return n
}

// write dumps every span as one JSON line, followed by the per-name
// summary, to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, r := range t.recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Recorder int `json:"recorder"`
				span
			}{i, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := enc.Encode(map[string]any{"summary": t.summary(), "dropped": t.dropped()}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
