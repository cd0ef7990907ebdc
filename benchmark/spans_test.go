package main

import "testing"

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		// A client call of 100 with two device children that overlap each
		// other (20..50 and 40..70: union 50) and one that outlives the call
		// (90..130: 10 inside). Self time 100 - 60 = 40.
		{ID: 1, Name: "client.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "blockdev.write", Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: "blockdev.write", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "blockdev.flush", Start: 90, End: 130},
		// A call with no children is all self time.
		{ID: 5, Name: "client.op", Start: 200, End: 230},
		// A child fully covering its parent leaves it no self time, and a
		// grandchild is subtracted from the child, not from the root.
		{ID: 6, Name: "client.op", Start: 300, End: 310},
		{ID: 7, Parent: 6, Name: "fswire.call", Start: 300, End: 310},
		{ID: 8, Parent: 7, Name: "blockdev.read", Start: 302, End: 306},
		// Background device work has no parent and keeps its whole duration.
		{ID: 9, Name: "blockdev.write", Start: 400, End: 405},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"client.op":      40 + 30 + 0,
		"blockdev.write": 30 + 30 + 5,
		"blockdev.flush": 40,
		"fswire.call":    6,
		"blockdev.read":  4,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want exactly %v", got, want)
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	parent := span{Start: 10, End: 20}
	cases := []struct {
		kids []span
		want int64
	}{
		{nil, 0},
		{[]span{{Start: 0, End: 5}}, 0},   // before the parent
		{[]span{{Start: 0, End: 30}}, 10}, // covers it all
		{[]span{{Start: 12, End: 14}, {Start: 13, End: 18}}, 6}, // overlap counted once
		{[]span{{Start: 16, End: 18}, {Start: 11, End: 12}}, 3}, // unsorted input
	}
	for i, c := range cases {
		if got := covered(parent, c.kids); got != c.want {
			t.Errorf("case %d: covered = %d, want %d", i, got, c.want)
		}
	}
}
