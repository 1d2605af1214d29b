package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := func(a, b int) (time.Duration, time.Duration) {
		return time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond
	}
	mk := func(id, parent int, name string, a, b int) span {
		s, e := ms(a, b)
		return span{ID: id, Parent: parent, Name: name, Start: s, End: e}
	}
	spans := []span{
		mk(1, 0, "request", 0, 100),
		mk(2, 1, "parse", 0, 10),
		mk(3, 1, "wait", 20, 80),
		mk(4, 3, "mine", 30, 60),
		mk(5, 3, "mine", 50, 70),    // overlaps its sibling: counted once
		mk(6, 1, "encode", 90, 120), // runs past its parent: clipped
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"request": 100*time.Millisecond - 10*time.Millisecond - 60*time.Millisecond - 10*time.Millisecond,
		"parse":   10 * time.Millisecond,
		"wait":    60*time.Millisecond - 40*time.Millisecond,
		"mine":    30*time.Millisecond + 20*time.Millisecond,
		"encode":  30 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	tr.call("outer", 0, op, func(id int) {
		tr.call("inner", id, op, func(int) { time.Sleep(time.Millisecond) })
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[1].Op != op {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if s := tr.spans[1]; s.End-s.Start < time.Millisecond {
		t.Errorf("inner span %v shorter than its sleep", s.End-s.Start)
	}
	var none *tracer
	ran := false
	none.call("x", 0, none.newOp(), func(int) { ran = true })
	if !ran {
		t.Error("an untraced call must still run")
	}
}
