package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeFromNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "rank", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "refine", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "balance", Start: 40 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "inner", Start: 50 * ms, End: 60 * ms},
		// Children on other tracks may overlap each other and stick out
		// of the parent: the covered interval counts once, clipped.
		{ID: 4, Parent: -1, Name: "rep", Start: 0, End: 50 * ms},
		{ID: 5, Parent: 4, Name: "a", Rank: 0, Start: 10 * ms, End: 30 * ms},
		{ID: 6, Parent: 4, Name: "a", Rank: 1, Start: 20 * ms, End: 40 * ms},
		{ID: 7, Parent: 4, Name: "a", Rank: 2, Start: 45 * ms, End: 70 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		0: 30 * ms, // 100 - 20 - 50
		1: 20 * ms,
		2: 40 * ms, // 50 - 10
		3: 10 * ms,
		4: 15 * ms, // 50 - [10,40] - [45,50]
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestPerRepMax(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "partition", Rep: 1, Rank: 0, Start: 0, End: 10 * ms},
		{Name: "partition", Rep: 1, Rank: 0, Start: 20 * ms, End: 25 * ms},
		{Name: "partition", Rep: 1, Rank: 1, Start: 0, End: 12 * ms},
		{Name: "partition", Rep: 2, Rank: 1, Start: 0, End: 7 * ms},
		{Name: "refine", Rep: 2, Rank: 1, Start: 0, End: 99 * ms},
	}
	got := sorted(perRepMax(spans, "partition"))
	if len(got) != 2 || got[0] != 0.007 || got[1] != 0.015 {
		t.Errorf("perRepMax = %v, want [0.007 0.015]", got)
	}
	if got := perRepMax(spans, "coarsen"); len(got) != 0 {
		t.Errorf("perRepMax of an absent span = %v", got)
	}
}

func TestRecorderAndTraceFile(t *testing.T) {
	var off *recorder
	off.end(off.begin("x", 0, 0, -1)) // the disabled recorder is a no-op
	if off.snapshot() != nil {
		t.Error("disabled recorder recorded something")
	}

	rec := newRecorder()
	outer := rec.begin("rank", 3, 7, -1)
	inner := rec.begin("balance", 3, 7, outer)
	rec.end(inner)
	rec.end(outer)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != outer || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Tid != 4 || ev.Args["rep"] != float64(7) {
				t.Errorf("event %+v: want tid 4, rep 7", ev)
			}
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2", complete)
	}
}
