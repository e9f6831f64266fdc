package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The benchmark's own tracing: one span around every call into a public
// function of the program, recorded from outside it.  Spans stay in memory
// and are written as Chrome trace-event JSON when the run ends.

// driverTrack is the track of spans recorded by the goroutine that drives a
// repetition (world creation); rank goroutines record on their rank number.
const driverTrack = -1

// span is one timed interval: what ran (Name), on which rank track, in
// which repetition, and inside which other span (Parent, -1 for none).
// Start and End are offsets from the recorder's creation.
type span struct {
	ID, Parent int
	Name       string
	Rank, Rep  int
	Start, End time.Duration
}

func (s span) duration() time.Duration { return s.End - s.Start }

// recorder collects spans from all rank goroutines.  A nil recorder is the
// disabled tracer: begin returns -1 and end does nothing, so an untraced
// repetition pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) begin(name string, rank, rep, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.base)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Rank: rank, Rep: rep, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.base)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct child spans cover.  Children are clipped to the
// parent and overlapping children (they may sit on different rank tracks)
// are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}

// perRepMax sums, for every repetition that recorded a span called name,
// the durations of those spans per rank and returns the largest rank sum of
// each repetition in seconds: the cross-rank maximum a collective call
// costs the whole world.
func perRepMax(spans []span, name string) []float64 {
	type key struct{ rep, rank int }
	sums := make(map[key]time.Duration)
	for _, s := range spans {
		if s.Name == name {
			sums[key{s.Rep, s.Rank}] += s.duration()
		}
	}
	maxes := make(map[int]time.Duration)
	for k, d := range sums {
		maxes[k.rep] = max(maxes[k.rep], d)
	}
	out := make([]float64, 0, len(maxes))
	for _, d := range maxes {
		out = append(out, d.Seconds())
	}
	return out
}

// traceEvent is one entry of the Chrome trace-event format ("X" complete
// events plus "M" thread-name metadata), loadable in Perfetto and
// chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func traceEvents(spans []span) []traceEvent {
	micros := func(d time.Duration) float64 { return float64(d) / 1e3 }
	tid := func(rank int) int { return rank + 1 } // driver track is tid 0
	var evs []traceEvent
	tracks := make(map[int]bool)
	for _, s := range spans {
		if !tracks[s.Rank] {
			tracks[s.Rank] = true
			name := "driver"
			if s.Rank != driverTrack {
				name = "rank " + strconv.Itoa(s.Rank)
			}
			evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid(s.Rank),
				Args: map[string]any{"name": name}})
		}
		evs = append(evs, traceEvent{Name: s.Name, Cat: "bench", Ph: "X",
			Ts: micros(s.Start), Dur: micros(s.duration()), Pid: 1, Tid: tid(s.Rank),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "rep": s.Rep}})
	}
	return evs
}

// writeTrace writes the spans as a Chrome trace-event JSON file.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(map[string]any{"traceEvents": traceEvents(spans), "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
