package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus the part of its interval its
// children cover: overlapping children count once and a child running past
// its parent is clipped.
func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 20 * ms, end: 40 * ms},  // overlaps a
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // runs past root
		{name: "a1", parent: 1, start: 12 * ms, end: 15 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{100*ms - 30*ms - 10*ms, 20*ms - 3*ms, 20 * ms, 30 * ms, 3 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

// The tracer nests spans by call order and rejects out-of-order ends.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 {
		t.Fatalf("parents = %d, %d", tr.spans[inner].parent, tr.spans[outer].parent)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ending the outer span first did not panic")
		}
	}()
	a := tr.begin("a")
	tr.begin("b")
	tr.end(a)
}
