// Package obs is the observability layer of the reproduction: a low-cost,
// rank-aware span tracer with named counters, cross-rank aggregation of
// per-phase measurements (the min/mean/max/imbalance breakdowns of the
// paper's Figures 18 and 19 analogues), Chrome trace-event export of a
// whole world's timeline, and the machine-readable benchmark record
// written by cmd/bench.
//
// The package is deliberately dependency-free (it does not import
// internal/comm); cross-rank aggregation goes through the small Gatherer
// interface, which *comm.Comm satisfies.  That lets the comm runtime
// itself attach a Tracer without an import cycle.
//
// A nil *Tracer is a valid, disabled tracer: every method is nil-safe and
// the disabled fast path performs no allocation and no clock read, so
// instrumentation can stay in place permanently (see BenchmarkSpanNil).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Well-known names emitted by the forest's intra-rank parallel pipeline
// (Forest.Workers).  SpanLocalPar brackets each region the balance
// phases hand to the worker pool — it is opened and closed on the rank's
// own goroutine, so the strict span-nesting rule holds even while workers
// run; the workers themselves never touch the tracer.  GaugeLocalWorkers is
// the per-rank high-water mark of the effective pool size.
const (
	SpanLocalPar      = "local/par"
	GaugeLocalWorkers = "local/workers"
)

// Well-known names emitted inside the query, query-response and rebalance
// phases of Forest.Balance.  The spans nest directly under the phase span of
// their prefix ("qr/" under query-response) and split it into its steps:
// building the query lists, sending them, answering peers and the rank's own
// inter-tree queries, waiting for and decoding the responses, regrouping the
// responses per local leaf, reconstructing the subtrees and splicing them
// in.  The counters give the query builder's work — insulation groups whose
// owners were bracketed, and cells resolved one by one where a group
// straddles a partition boundary — and the responder's funnel: queries
// issued, candidate (query, leaf) hits, and the hits left after collapsing
// sibling families.  Forest.BuildGhost counts the same boundary-scan work
// for its send schedule under the ghost/ prefix.
const (
	SpanQueryBuild       = "query/build"
	SpanQRSend           = "qr/send"
	SpanQRRespondRemote  = "qr/respond-remote"
	SpanQRRespondSelf    = "qr/respond-self"
	SpanQRRecvWait       = "qr/recv-wait"
	SpanRebalanceGroup   = "rebalance/group"
	SpanRebalanceSubtree = "rebalance/subtree"
	SpanRebalanceSplice  = "rebalance/splice"

	CounterQueryGroups     = "balance/query-groups"
	CounterQueryCells      = "balance/query-cells"
	CounterGhostGroups     = "ghost/groups"
	CounterGhostCells      = "ghost/cells"
	CounterBalanceQueries  = "balance/queries"
	CounterRespondHits     = "balance/respond-hits"
	CounterRespondFamilies = "balance/respond-families"
)

// Well-known names emitted by the crash-fault tolerance layer: the comm
// rank lifecycle (kills, respawns) and the forest epoch runner
// (checkpoints, rollback/replay).  SpanRollback brackets one coordinated
// recovery on the rank that performs it — restore from checkpoint through
// the end of the re-synchronizing rendezvous.
const (
	CounterKills       = "recover/kills"
	CounterRespawns    = "recover/respawns"
	CounterReplays     = "recover/replays"
	CounterCheckpoints = "recover/checkpoints"
	CounterCkptBytes   = "recover/ckpt-bytes"
	SpanRollback       = "recover/rollback"
)

// Well-known names emitted by the socket transport (internal/netcomm):
// physical frames and bytes on the wire, dial attempts with cumulative
// latency, and reconnects after dropped connections.  The transport
// records them on its lowest local rank's track, since frames belong to
// the process, not to any one rank.
const (
	CounterNetFramesSent = "net/frames-sent"
	CounterNetFramesRecv = "net/frames-recv"
	CounterNetBytesSent  = "net/bytes-sent"
	CounterNetBytesRecv  = "net/bytes-recv"
	CounterNetDials      = "net/dials"
	CounterNetDialNanos  = "net/dial-nanos"
	CounterNetReconnects = "net/reconnects"
	CounterNetChaosDrops = "net/chaos-drops"
	CounterNetQueueDrops = "net/queue-drops"
)

// eventKind distinguishes the record types in a rank's event buffer.
type eventKind uint8

const (
	evBegin eventKind = iota
	evEnd
	evInstant
)

// event is one timeline record on a rank's track.  Events are appended
// under the rank's lock with the timestamp read inside the critical
// section, so each buffer is ordered by ts.
type event struct {
	ts   time.Duration
	kind eventKind
	name string
	cat  string
}

// rankBuf holds one rank's timeline and counter state.
type rankBuf struct {
	mu       sync.Mutex
	events   []event
	counters map[string]int64
	maxima   map[string]int64
}

// Tracer records spans, instant events and counters per rank.  Spans on
// one rank must be strictly nested (End the inner span before the outer
// one), which the single-goroutine-per-rank discipline of the comm runtime
// guarantees; instants and counters may additionally be recorded from
// other goroutines (e.g. the retransmission loop) and interleave freely.
type Tracer struct {
	base  time.Time
	clock func() time.Duration
	ranks []*rankBuf
}

// NewTracer creates a tracer with one track per rank, timed by the real
// monotonic clock (durations since creation).
func NewTracer(ranks int) *Tracer {
	if ranks < 1 {
		panic("obs: tracer needs at least one rank")
	}
	t := &Tracer{base: time.Now()}
	t.clock = func() time.Duration { return time.Since(t.base) }
	t.ranks = make([]*rankBuf, ranks)
	for i := range t.ranks {
		t.ranks[i] = &rankBuf{
			counters: make(map[string]int64),
			maxima:   make(map[string]int64),
		}
	}
	return t
}

// SetClock replaces the time source with a virtual clock, for deterministic
// tests.  The clock must be monotonically non-decreasing; it is called
// under per-rank locks and must not call back into the tracer.  Must be set
// before any recording.
func (t *Tracer) SetClock(clock func() time.Duration) { t.clock = clock }

// NumRanks returns the number of tracks, or 0 for a nil tracer.
func (t *Tracer) NumRanks() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

// Span is the handle returned by Begin.  The zero Span (from a nil tracer)
// is valid and End on it is a no-op.
type Span struct {
	t     *Tracer
	rank  int32
	start time.Duration
	name  string
	cat   string
}

// Live reports whether the span is actually being recorded.
func (s Span) Live() bool { return s.t != nil }

// Begin opens a span named name in category cat on the given rank's track
// and returns its handle.  On a nil tracer it returns the zero Span at no
// cost.
func (t *Tracer) Begin(rank int, name, cat string) Span {
	if t == nil {
		return Span{}
	}
	rb := t.ranks[rank]
	rb.mu.Lock()
	ts := t.clock()
	rb.events = append(rb.events, event{ts: ts, kind: evBegin, name: name, cat: cat})
	rb.mu.Unlock()
	return Span{t: t, rank: int32(rank), start: ts, name: name, cat: cat}
}

// End closes the span and returns its duration as measured by the tracer's
// clock (zero for a disabled span).
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	rb := s.t.ranks[s.rank]
	rb.mu.Lock()
	ts := s.t.clock()
	rb.events = append(rb.events, event{ts: ts, kind: evEnd, name: s.name, cat: s.cat})
	rb.mu.Unlock()
	return ts - s.start
}

// Instant records a zero-duration marker on the rank's track (rendered as
// an arrow/tick in trace viewers) — used for retransmissions and similar
// point happenings.
func (t *Tracer) Instant(rank int, name, cat string) {
	if t == nil {
		return
	}
	rb := t.ranks[rank]
	rb.mu.Lock()
	rb.events = append(rb.events, event{ts: t.clock(), kind: evInstant, name: name, cat: cat})
	rb.mu.Unlock()
}

// Add increments the named counter on the given rank by delta.
func (t *Tracer) Add(rank int, name string, delta int64) {
	if t == nil {
		return
	}
	rb := t.ranks[rank]
	rb.mu.Lock()
	rb.counters[name] += delta
	rb.mu.Unlock()
}

// ObserveMax raises the named high-water-mark gauge on the given rank to v
// if v exceeds the current value.
func (t *Tracer) ObserveMax(rank int, name string, v int64) {
	if t == nil {
		return
	}
	rb := t.ranks[rank]
	rb.mu.Lock()
	if v > rb.maxima[name] {
		rb.maxima[name] = v
	}
	rb.mu.Unlock()
}

// Counter returns the named counter's value on one rank.
func (t *Tracer) Counter(rank int, name string) int64 {
	if t == nil {
		return 0
	}
	rb := t.ranks[rank]
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.counters[name]
}

// TotalCounter sums the named counter over all ranks.
func (t *Tracer) TotalCounter(name string) int64 {
	if t == nil {
		return 0
	}
	var total int64
	for _, rb := range t.ranks {
		rb.mu.Lock()
		total += rb.counters[name]
		rb.mu.Unlock()
	}
	return total
}

// MaxGauge returns the maximum of the named gauge over all ranks.
func (t *Tracer) MaxGauge(name string) int64 {
	if t == nil {
		return 0
	}
	var m int64
	for _, rb := range t.ranks {
		rb.mu.Lock()
		if v := rb.maxima[name]; v > m {
			m = v
		}
		rb.mu.Unlock()
	}
	return m
}

// CounterNames returns the sorted union of counter names over all ranks.
func (t *Tracer) CounterNames() []string {
	if t == nil {
		return nil
	}
	set := make(map[string]struct{})
	for _, rb := range t.ranks {
		rb.mu.Lock()
		for name := range rb.counters {
			set[name] = struct{}{}
		}
		rb.mu.Unlock()
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SpanRecord is one reconstructed (matched Begin/End) span.
type SpanRecord struct {
	Rank       int
	Name, Cat  string
	Start, End time.Duration
	// Depth is the nesting level at Begin time: 0 for top-level spans.
	Depth int
}

// Duration returns the span length.
func (r SpanRecord) Duration() time.Duration { return r.End - r.Start }

// Spans reconstructs the matched spans of one rank, in Begin order.
// Spans still open (Begin without End) are omitted.
func (t *Tracer) Spans(rank int) []SpanRecord {
	if t == nil {
		return nil
	}
	rb := t.ranks[rank]
	rb.mu.Lock()
	events := make([]event, len(rb.events))
	copy(events, rb.events)
	rb.mu.Unlock()

	var out []SpanRecord
	var stack []int // indices into out of open spans
	for _, e := range events {
		switch e.kind {
		case evBegin:
			out = append(out, SpanRecord{
				Rank: rank, Name: e.name, Cat: e.cat,
				Start: e.ts, End: -1, Depth: len(stack),
			})
			stack = append(stack, len(out)-1)
		case evEnd:
			if len(stack) == 0 {
				panic(fmt.Sprintf("obs: rank %d: End(%q) without matching Begin", rank, e.name))
			}
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out[i].End = e.ts
		}
	}
	// Drop spans that never ended.
	closed := out[:0]
	for _, r := range out {
		if r.End >= 0 {
			closed = append(closed, r)
		}
	}
	return closed
}

// PhaseDurations sums span durations by name on one rank.  With the
// balance instrumentation attached this reconstructs the PhaseTimes view:
// the per-phase wall-clock breakdown of Figures 15/17 (and the per-rank
// samples behind the Figure 18/19-style aggregate).
func (t *Tracer) PhaseDurations(rank int) map[string]time.Duration {
	spans := t.Spans(rank)
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.Duration()
	}
	return out
}
