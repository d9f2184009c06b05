package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	r := tr.recorder(8)
	parent := r.add("batch", 0, 1, 0, 100)
	r.add("a", parent, 1, 10, 30)
	r.add("b", parent, 1, 25, 60)  // overlaps a: the union 10..60 counts once
	r.add("c", parent, 1, 90, 120) // runs past the parent: only 90..100 counts
	r.add("other", 0, 2, 200, 210)
	s := tr.summary()
	if got := s["batch"]; got.Count != 1 || got.Total != 100 || got.Self != 100-50-10 {
		t.Errorf("batch = %+v, want total 100 self 40", *got)
	}
	if got := s["a"]; got.Total != 20 || got.Self != 20 {
		t.Errorf("a = %+v", *got)
	}
	if got := s["other"]; got.Self != 10 {
		t.Errorf("other = %+v", *got)
	}
}

func TestRecorderLimits(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.add("x", 0, 0, 1, 2); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	var nilTracer *tracer
	if nilTracer.recorder(4) != nil || nilTracer.dropped() != 0 || len(nilTracer.summary()) != 0 {
		t.Error("nil tracer is not inert")
	}
	tr := &tracer{}
	r := tr.recorder(2)
	r.add("x", 0, 0, 1, 2)
	r.add("x", 0, 0, 2, 3)
	if id := r.add("x", 0, 0, 3, 4); id != 0 {
		t.Errorf("full recorder returned id %d", id)
	}
	if tr.dropped() != 1 {
		t.Errorf("dropped = %d, want 1", tr.dropped())
	}
}

func TestTraceWrite(t *testing.T) {
	tr := &tracer{}
	r := tr.recorder(4)
	p := r.add("batch", 0, 7, 0, 10)
	r.add("child", p, 7, 2, 5)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 2 spans and a summary", len(lines))
	}
	if lines[1]["Name"] != "child" || lines[1]["Parent"].(float64) != 1 || lines[1]["Group"].(float64) != 7 {
		t.Errorf("child span = %v", lines[1])
	}
	if _, ok := lines[2]["summary"]; !ok {
		t.Errorf("last line = %v, want the summary", lines[2])
	}
}
