package main

import (
	"testing"
	"time"
)

func iv(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Op: 1, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := iv(1, 0, "op", 0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{iv(2, 1, "a", 10, 20), iv(3, 1, "b", 30, 50)}, 70},
		{"overlapping", []span{iv(2, 1, "a", 10, 40), iv(3, 1, "b", 30, 60)}, 50},
		{"nested inside another child", []span{iv(2, 1, "a", 10, 60), iv(3, 1, "b", 20, 30)}, 50},
		{"touching", []span{iv(2, 1, "a", 10, 20), iv(3, 1, "b", 20, 30)}, 80},
		{"sticking out of the parent", []span{iv(2, 1, "a", 90, 130)}, 90},
		{"unsorted", []span{iv(3, 1, "b", 70, 80), iv(2, 1, "a", 0, 10)}, 80},
		{"covering the parent", []span{iv(2, 1, "a", 0, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesNested(t *testing.T) {
	// op [0,100] has children a [10,50] and b [40,70]; a has a child
	// c [20,30]. Self times: op 100-60=40, a 40-10=30, b 30, c 10.
	spans := []span{
		iv(1, 0, "op", 0, 100),
		iv(2, 1, "a", 10, 50),
		iv(3, 1, "b", 40, 70),
		iv(4, 2, "c", 20, 30),
	}
	got := selfTimes(spans)[1]
	for name, want := range map[string]time.Duration{"op": 40, "a": 30, "b": 30, "c": 10} {
		if got[name] != want {
			t.Errorf("%s: self %v, want %v", name, got[name], want)
		}
	}
}

func TestRecorderSpans(t *testing.T) {
	rec := newRecorder()
	sp := rec.op(7)
	if err := sp.do(0, "op", func(root int) error {
		return sp.do(root, "child", func(int) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	op, child := spans[0], spans[1]
	if op.Op != 7 || child.Op != 7 || child.Parent != op.ID || op.Parent != 0 {
		t.Errorf("span links wrong: %+v %+v", op, child)
	}
	if child.Start < op.Start || child.End > op.End || op.End < op.Start {
		t.Errorf("child not inside parent: %+v %+v", op, child)
	}
	// The untraced path runs the same code and records nothing.
	calls := 0
	_ = opSpans{}.do(0, "op", func(id int) error {
		calls++
		if id != 0 {
			t.Errorf("untraced span id %d", id)
		}
		return nil
	})
	if calls != 1 {
		t.Errorf("untraced body ran %d times", calls)
	}
}
