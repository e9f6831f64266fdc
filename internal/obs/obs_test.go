package obs_test

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// vclock is a deterministic virtual clock: every read advances it by step.
type vclock struct {
	now  time.Duration
	step time.Duration
}

func (c *vclock) read() time.Duration {
	c.now += c.step
	return c.now
}

func TestSpanNestingAndDurations(t *testing.T) {
	tr := obs.NewTracer(2)
	clk := &vclock{step: time.Millisecond}
	tr.SetClock(clk.read)

	outer := tr.Begin(0, "outer", "test") // ts 1ms
	inner := tr.Begin(0, "inner", "test") // ts 2ms
	if d := inner.End(); d != time.Millisecond {
		t.Fatalf("inner duration %v, want 1ms", d) // ts 3ms
	}
	tr.Instant(0, "tick", "test") // ts 4ms
	if d := outer.End(); d != 4*time.Millisecond {
		t.Fatalf("outer duration %v, want 4ms", d) // ts 5ms
	}

	spans := tr.Spans(0)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Begin order: outer first, depth 0; inner second, depth 1.
	if spans[0].Name != "outer" || spans[0].Depth != 0 {
		t.Errorf("span 0 = %+v, want outer at depth 0", spans[0])
	}
	if spans[1].Name != "inner" || spans[1].Depth != 1 {
		t.Errorf("span 1 = %+v, want inner at depth 1", spans[1])
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("inner %v not nested in outer %v", spans[1], spans[0])
	}
	if got := tr.Spans(1); len(got) != 0 {
		t.Errorf("rank 1 has %d spans, want 0", len(got))
	}
}

func TestSpanUnclosedDropped(t *testing.T) {
	tr := obs.NewTracer(1)
	clk := &vclock{step: time.Millisecond}
	tr.SetClock(clk.read)
	tr.Begin(0, "never-ends", "test")
	done := tr.Begin(0, "done", "test")
	done.End()
	spans := tr.Spans(0)
	if len(spans) != 1 || spans[0].Name != "done" {
		t.Fatalf("spans = %+v, want just the closed one", spans)
	}
}

func TestPhaseDurations(t *testing.T) {
	tr := obs.NewTracer(1)
	clk := &vclock{step: time.Millisecond}
	tr.SetClock(clk.read)
	tr.Begin(0, "phase-a", "test").End() // 1ms
	tr.Begin(0, "phase-b", "test").End() // 1ms
	tr.Begin(0, "phase-a", "test").End() // 1ms
	got := tr.PhaseDurations(0)
	if got["phase-a"] != 2*time.Millisecond || got["phase-b"] != time.Millisecond {
		t.Fatalf("durations %v, want phase-a 2ms, phase-b 1ms", got)
	}
}

func TestCountersAndGauges(t *testing.T) {
	tr := obs.NewTracer(3)
	tr.Add(0, "msgs", 2)
	tr.Add(1, "msgs", 5)
	tr.Add(1, "bytes", 100)
	tr.ObserveMax(0, "depth", 7)
	tr.ObserveMax(2, "depth", 3)
	tr.ObserveMax(0, "depth", 4) // lower: no effect

	if got := tr.Counter(1, "msgs"); got != 5 {
		t.Errorf("Counter(1, msgs) = %d, want 5", got)
	}
	if got := tr.TotalCounter("msgs"); got != 7 {
		t.Errorf("TotalCounter(msgs) = %d, want 7", got)
	}
	if got := tr.MaxGauge("depth"); got != 7 {
		t.Errorf("MaxGauge(depth) = %d, want 7", got)
	}
	names := tr.CounterNames()
	if len(names) != 2 || names[0] != "bytes" || names[1] != "msgs" {
		t.Errorf("CounterNames = %v, want [bytes msgs]", names)
	}
}

// TestNilTracerSafe checks every method of a nil tracer is a no-op and the
// disabled span path does not allocate.
func TestNilTracerSafe(t *testing.T) {
	var tr *obs.Tracer
	if tr.NumRanks() != 0 {
		t.Error("nil NumRanks != 0")
	}
	sp := tr.Begin(0, "x", "y")
	if sp.Live() {
		t.Error("nil tracer span is Live")
	}
	if sp.End() != 0 {
		t.Error("nil span End != 0")
	}
	tr.Instant(0, "x", "y")
	tr.Add(0, "c", 1)
	tr.ObserveMax(0, "g", 1)
	if tr.Counter(0, "c") != 0 || tr.TotalCounter("c") != 0 || tr.MaxGauge("g") != 0 {
		t.Error("nil tracer counters not zero")
	}
	if tr.CounterNames() != nil || tr.Spans(0) != nil || tr.PhaseDurations(0) != nil {
		t.Error("nil tracer queries not nil")
	}

	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Begin(5, "phase", "cat")
		tr.Add(5, "msgs", 1)
		// The balance phases open their step spans and bump their funnel
		// counters unconditionally, nested under the phase span.
		for _, name := range []string{
			obs.SpanQueryBuild, obs.SpanQRSend, obs.SpanQRRespondRemote, obs.SpanQRRespondSelf,
			obs.SpanQRRecvWait, obs.SpanRebalanceGroup, obs.SpanRebalanceSubtree, obs.SpanRebalanceSplice,
		} {
			tr.Begin(5, name, "balance").End()
		}
		tr.Add(5, obs.CounterBalanceQueries, 1)
		tr.Add(5, obs.CounterRespondHits, 1)
		tr.Add(5, obs.CounterRespondFamilies, 1)
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer path allocates %v per op, want 0", allocs)
	}
}
