// Package comm provides an in-process message-passing runtime that stands
// in for MPI: ranks are goroutines, point-to-point messages are tagged byte
// slices delivered through per-rank mailboxes, and the collective
// operations used by the paper (barrier, Allgather, Allgatherv, Allreduce)
// are implemented on top of the point-to-point layer with standard
// algorithms so that message counts and byte volumes are meaningful.
//
// Every send is metered (message count and payload bytes, attributed to the
// sender's current phase label), which is how this reproduction measures
// the communication-volume claims of the paper without physical hardware.
// Metering counts the *logical* channel: one Send is one message no matter
// how often the transport layer below (transport.go) drops, duplicates or
// retransmits the packet that carries it.  Physical traffic, including
// retries and acks, is reported separately by NetStats.
//
// The layering, top to bottom:
//
//	Comm (Send/Recv/collectives, phase metering, blocked-op tracking)
//	reliable delivery (reliable.go: per-channel seq, dedup, ack/retry)
//	Transport (transport.go: Perfect by default, Chaos for fault injection)
//	inbox (bounded per-rank mailboxes with backpressure accounting)
package comm

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// message is a logical point-to-point payload in flight.
type message struct {
	src, tag int
	phase    string // sender's phase at send time (metering attribution)
	data     []byte
}

// DefaultMailboxCap bounds each rank's mailbox: a sender (or the transport
// delivering on its behalf) blocks once this many messages are pending at
// one receiver, which converts unbounded memory growth into observable
// backpressure (NetStats.BackpressureStalls, Stats.MaxQueueDepth).
const DefaultMailboxCap = 1 << 15

// inbox is a bounded mailbox owned by a single receiving rank.
type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	msgs  []message
	world *World
	rank  int // owning (receiving) rank, for tracer attribution
}

func newInbox(w *World, rank int) *inbox {
	ib := &inbox{world: w, rank: rank}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// put appends a message, blocking while the mailbox is full.  It reports
// whether the message was delivered (false on a poisoned world, or while
// a failure is pending — the mailbox is about to be flushed by the
// recovery reset, so deliveries during the abort window are dropped
// rather than left to wedge on a full mailbox).
func (ib *inbox) put(m message) bool {
	w := ib.world
	ib.mu.Lock()
	for w.mailboxCap > 0 && len(ib.msgs) >= w.mailboxCap {
		if w.poisoned.Load() || w.life.failure.Load() != nil {
			ib.mu.Unlock()
			return false
		}
		atomic.AddInt64(&w.net.BackpressureStalls, 1)
		ib.cond.Wait()
	}
	if w.poisoned.Load() || w.life.failure.Load() != nil {
		ib.mu.Unlock()
		return false
	}
	ib.msgs = append(ib.msgs, m)
	depth := len(ib.msgs)
	ib.mu.Unlock()
	w.noteQueueDepth(m.phase, depth)
	w.Tracer().ObserveMax(ib.rank, "mailbox/depth", int64(depth))
	ib.cond.Broadcast()
	return true
}

// take removes and returns the first message matching (src, tag), blocking
// until one arrives.  src < 0 matches any source.  It panics with a typed
// *CommError if the world is poisoned (which is how rank goroutines leaked
// by a watchdog timeout are terminated instead of blocking forever), if a
// rank death or deadline failure is broadcast while waiting, or — when dl
// is non-zero — once the deadline passes without a matching message.
func (ib *inbox) take(src, tag int, dl time.Time, op string) message {
	w := ib.world
	if !dl.IsZero() {
		// cond.Wait has no timeout; an external waker makes the loop
		// re-check the clock when the deadline lapses.
		waker := time.AfterFunc(time.Until(dl), ib.cond.Broadcast)
		defer waker.Stop()
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if w.poisoned.Load() {
			panic(poisonErr)
		}
		if fe := w.life.failure.Load(); fe != nil {
			panic(fe)
		}
		for i, m := range ib.msgs {
			if m.tag == tag && (src < 0 || m.src == src) {
				// Delete zeroes the vacated tail slot, so the backing
				// array does not keep the taken payload alive.
				ib.msgs = slices.Delete(ib.msgs, i, i+1)
				ib.cond.Broadcast() // wake senders blocked on a full mailbox
				w.noteDequeue(m.phase, len(m.data))
				return m
			}
		}
		if !dl.IsZero() && time.Now().After(dl) {
			ce := &CommError{Kind: FailureDeadline, Rank: ib.rank, Op: op}
			// Publish the failure so every other rank aborts too and the
			// world converges on the recovery rendezvous; panic with the
			// published failure (an earlier one wins the race).  The wake
			// broadcast takes every inbox lock, so release ours around it.
			ib.mu.Unlock()
			w.raiseFailure(ce)
			ib.mu.Lock()
			panic(w.life.failure.Load())
		}
		ib.cond.Wait()
	}
}

// Stats counts logical messages and payload bytes, plus the mailbox
// pressure that traffic caused.
type Stats struct {
	Messages int64
	Bytes    int64
	// RawBytes is the codec-independent (WireV0-equivalent) size of the
	// payloads sent in this phase, as reported by producers through
	// Comm.AddRawBytes.  Bytes/RawBytes is then the phase's wire
	// compression ratio; RawBytes stays zero for traffic whose producer
	// does not meter raw sizes.
	RawBytes int64
	// MaxQueueDepth is the peak receiver-mailbox depth (pending message
	// count) observed when a message of this phase was enqueued.
	MaxQueueDepth int64
	// PeakInFlightBytes is the peak number of logical payload bytes of
	// this phase that had been sent but not yet received.
	PeakInFlightBytes int64
}

// Add accumulates other into s: counters sum, peaks take the maximum.
func (s *Stats) Add(other Stats) {
	s.Messages += other.Messages
	s.Bytes += other.Bytes
	s.RawBytes += other.RawBytes
	if other.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = other.MaxQueueDepth
	}
	if other.PeakInFlightBytes > s.PeakInFlightBytes {
		s.PeakInFlightBytes = other.PeakInFlightBytes
	}
}

// NetStats counts physical transport activity, which the logical Stats
// deliberately exclude: acknowledgements, retransmissions, duplicates
// absorbed by dedup, and senders stalled on a full mailbox.
type NetStats struct {
	DataPackets        int64 // data packets handed to the transport, incl. retries
	AckPackets         int64
	Retries            int64
	DupsDropped        int64 // duplicate data packets absorbed before the mailbox
	WireBytes          int64 // payload bytes over the wire, incl. retries and dups
	BackpressureStalls int64 // times a sender blocked on a full mailbox
}

// rankState is one rank's published execution state, read by the watchdog.
type rankState struct {
	mu    sync.Mutex
	phase string
	op    string // description of the blocking comm op, "" while computing
	since time.Time
}

func (st *rankState) setPhase(phase string) {
	st.mu.Lock()
	st.phase = phase
	st.mu.Unlock()
}

func (st *rankState) block(op string) {
	st.mu.Lock()
	st.op = op
	st.since = time.Now()
	st.mu.Unlock()
}

func (st *rankState) unblock() {
	st.mu.Lock()
	st.op = ""
	st.mu.Unlock()
}

func (st *rankState) snapshot() (phase, op string, since time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.phase, st.op, st.since
}

// poisonErr is the shared typed panic value for operations on a poisoned
// world (errors.Is(…, ErrPoisoned) holds).
var poisonErr = &CommError{Kind: FailurePoisoned, Rank: -1}

// World is a group of P communicating ranks.
type World struct {
	size       int
	inboxes    []*inbox
	states     []*rankState
	timeout    time.Duration
	mailboxCap int

	transport Transport
	reliable  bool
	sendChans []*sendChan // per (src,dst); nil when the transport is reliable
	recvChans []*recvChan

	// tracer is the attached observability sink (nil when disabled).  It
	// is read from rank and transport goroutines, some of which start
	// before SetTracer can be called, hence the atomic pointer.
	tracer atomic.Pointer[obs.Tracer]

	net NetStats // updated atomically field by field

	// retainsWire, when non-nil, reports that the transport reads packet
	// payloads outside the Send call (a socket transport serializes them on
	// writer goroutines and in retransmit races).  Wire copies of packets
	// bound for such destinations are leaked to the GC instead of recycled,
	// so no pool reuse can race the transport's reads.
	retainsWire func(dst int) bool

	poisoned  atomic.Bool
	closeCh   chan struct{}
	closeOnce sync.Once

	// spanLo/spanHi is the local rank span the most recent Run/RunRanks
	// hosted, used by failure reports to name only observable ranks.  A
	// single-process world always spans [0, size).
	spanMu         sync.Mutex
	spanLo, spanHi int

	// life holds the crash-fault state: dead ranks, the broadcast failure
	// flag, the packet incarnation, armed crash points and the recovery
	// rendezvous (lifecycle.go).
	life lifecycle

	// lastFailure is the structured report captured by the most recent
	// watchdog or panic-grace escalation (report.go).
	lastFailure atomic.Pointer[FailureReport]

	statsMu  sync.Mutex
	stats    map[string]Stats // per phase label
	inflight map[string]int64 // logical bytes sent but not yet received, per phase
}

// NewWorld creates a world of p ranks on the default perfect transport.
func NewWorld(p int) *World {
	return NewWorldTransport(p, NewPerfectTransport())
}

// NewWorldTransport creates a world of p ranks whose packets travel through
// tr.  If tr is not Reliable, the world layers its ack/retry protocol on
// top so that Send/Recv and the collectives keep exactly-once, in-order
// semantics regardless of the faults tr injects.
func NewWorldTransport(p int, tr Transport) *World {
	if p < 1 {
		panic("comm: world size must be positive")
	}
	w := &World{
		size:       p,
		transport:  tr,
		reliable:   tr.Reliable(),
		mailboxCap: DefaultMailboxCap,
		closeCh:    make(chan struct{}),
		stats:      make(map[string]Stats),
		inflight:   make(map[string]int64),
		spanHi:     p,
	}
	w.inboxes = make([]*inbox, p)
	w.states = make([]*rankState, p)
	for i := range w.inboxes {
		w.inboxes[i] = newInbox(w, i)
		w.states[i] = &rankState{}
	}
	if !w.reliable {
		w.sendChans = make([]*sendChan, p*p)
		w.recvChans = make([]*recvChan, p*p)
		for i := range w.sendChans {
			w.sendChans[i] = &sendChan{unacked: make(map[uint64]*pending)}
			w.recvChans[i] = &recvChan{held: make(map[uint64]Packet)}
		}
	}
	tr.Start(w.onPacket)
	// A transport that models rank death (CrashTransport) reports seeded
	// kills upward so the logical layer raises the typed failure.
	if ct, ok := tr.(interface{ SetKillHook(func(int)) }); ok {
		ct.SetKillHook(w.KillRank)
	}
	// A transport that reads payloads asynchronously (internal/netcomm)
	// opts the affected channels out of wire-copy recycling.
	if rt, ok := tr.(interface{ RetainsWire(dst int) bool }); ok {
		w.retainsWire = rt.RetainsWire
	}
	if !w.reliable {
		go w.retransmitter()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetTimeout arms a deadlock watchdog: if a subsequent Run does not finish
// within d, it poisons the world and panics with a per-rank dump (current
// phase, the operation each rank is blocked in, pending mailbox contents)
// instead of blocking forever.  The most common cause is an SPMD discipline
// violation — ranks calling a collective operation a different number of
// times, or a Recv whose matching Send never happens.  Zero (the default)
// disables the watchdog.
func (w *World) SetTimeout(d time.Duration) { w.timeout = d }

// SetMailboxCap bounds every rank's mailbox to n pending messages
// (DefaultMailboxCap initially); n <= 0 removes the bound.  Must be called
// before Run.
func (w *World) SetMailboxCap(n int) { w.mailboxCap = n }

// SetTracer attaches an observability tracer: collectives and blocking
// receives become spans on the caller's rank track, sends bump per-rank
// counters, and the reliable layer marks retransmissions.  The tracer must
// have at least Size() rank tracks.  tr may be nil to detach.  Tracing is
// purely additive: the logical Stats meters are not affected.
func (w *World) SetTracer(tr *obs.Tracer) {
	if tr != nil && tr.NumRanks() < w.size {
		panic(fmt.Sprintf("comm: tracer has %d rank tracks, world needs %d", tr.NumRanks(), w.size))
	}
	w.tracer.Store(tr)
	// Transports with their own physical-layer meters (the socket transport
	// counts frames, bytes and reconnects) mirror them into the same tracer.
	if st, ok := w.transport.(interface{ SetTracer(*obs.Tracer) }); ok {
		st.SetTracer(tr)
	}
}

// LocalSpan returns the local rank span the most recent Run/RunRanks
// hosted ([0, Size) for a single-process world).
func (w *World) LocalSpan() (lo, hi int) {
	w.spanMu.Lock()
	defer w.spanMu.Unlock()
	return w.spanLo, w.spanHi
}

// Tracer returns the attached tracer, or nil (a valid disabled tracer).
func (w *World) Tracer() *obs.Tracer { return w.tracer.Load() }

// NetStats returns a snapshot of physical transport counters.
func (w *World) NetStats() NetStats {
	return NetStats{
		DataPackets:        atomic.LoadInt64(&w.net.DataPackets),
		AckPackets:         atomic.LoadInt64(&w.net.AckPackets),
		Retries:            atomic.LoadInt64(&w.net.Retries),
		DupsDropped:        atomic.LoadInt64(&w.net.DupsDropped),
		WireBytes:          atomic.LoadInt64(&w.net.WireBytes),
		BackpressureStalls: atomic.LoadInt64(&w.net.BackpressureStalls),
	}
}

// Poisoned reports whether the world has been torn down by a watchdog
// timeout or Close; all further communication on it fails loudly.
func (w *World) Poisoned() bool { return w.poisoned.Load() }

// Close stops the transport and the retransmission loop.  The world must
// not be used afterwards.  Idempotent.
//
// On an unreliable transport Close first quiesces: it waits (bounded)
// until every message this process sent has been acknowledged.  In a
// multi-process world the ranks of one process can finish a collective
// before their peers have received its tail — the final ring sends of an
// Allgatherv sit in a writer queue or await acks when the local span
// returns — and poisoning at that instant would discard the frames and
// kill the retransmitter, starving the remote ranks forever.
func (w *World) Close() {
	w.drainOutbound()
	w.poison()
}

// poison marks the world dead and wakes every blocked goroutine so that
// rank goroutines leaked by a watchdog timeout terminate (by panicking on
// their next — or current — comm operation) instead of silently mutating
// shared state forever.  Safe and idempotent under concurrent callers:
// the flag is atomic, teardown runs once, and the wake broadcast is
// harmless to repeat.  Waiters are woken before the transport stops,
// because a transport that drains its in-flight deliveries on Stop
// (ChaosTransport) may be blocked in a mailbox put that only the
// poisoned-flag re-check can release.
func (w *World) poison() {
	w.poisoned.Store(true)
	w.wakeAll()
	w.closeOnce.Do(func() {
		close(w.closeCh)
		w.transport.Stop()
	})
}

func (w *World) checkLive() {
	if w.poisoned.Load() {
		panic(poisonErr)
	}
}

// panicGrace is how long Run waits for the surviving ranks after one rank
// panicked before tearing the world down: a dead rank usually deadlocks
// its peers (their collectives will never complete), and waiting for the
// full watchdog timeout would only delay the report.
const panicGrace = 5 * time.Second

// Run executes fn concurrently on every rank and blocks until all ranks
// return.  Panics are re-raised on the caller: if several ranks panicked,
// all of them are reported, not just the first.  If a watchdog timeout is
// armed (SetTimeout) and expires, Run poisons the world and panics with a
// per-rank diagnostic dump naming the operation each rank is blocked in.
func (w *World) Run(fn func(c *Comm)) {
	w.RunRanks(0, w.size, fn)
}

// RunRanks executes fn concurrently on the local rank span [lo, hi) and
// blocks until those ranks return.  It is how a world that spans multiple
// OS processes (internal/netcomm) runs: every process creates a World of
// the full size over the same socket transport, but hosts only the rank
// goroutines of its own span — the remaining ranks live in peer processes
// and reach this one through the transport.  Collectives work unchanged
// because they are built on point-to-point sends that the transport routes
// by destination rank.  Panic and watchdog semantics match Run, except the
// diagnostic dump names only local ranks (remote state is not observable
// here).
func (w *World) RunRanks(lo, hi int, fn func(c *Comm)) {
	if lo < 0 || hi > w.size || lo >= hi {
		panic(fmt.Sprintf("comm: RunRanks: invalid span [%d, %d) for world of %d ranks", lo, hi, w.size))
	}
	w.checkLive()
	w.spanMu.Lock()
	w.spanLo, w.spanHi = lo, hi
	w.spanMu.Unlock()
	var wg sync.WaitGroup
	panics := make(chan string, hi-lo)
	for r := lo; r < hi; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("rank %d: %v", rank, p)
				}
			}()
			st := w.states[rank]
			st.setPhase("default")
			st.unblock()
			fn(&Comm{rank: rank, world: w, st: st, phase: "default"})
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	var watchdogC <-chan time.Time
	if w.timeout > 0 {
		t := time.NewTimer(w.timeout)
		defer t.Stop()
		watchdogC = t.C
	}
	var collected []string
	var graceC <-chan time.Time
	for {
		select {
		case <-done:
			collected = append(collected, drainPanics(panics)...)
			if len(collected) > 0 {
				panic(aggregatePanics(collected))
			}
			return
		case p := <-panics:
			collected = append(collected, p)
			if graceC == nil {
				t := time.NewTimer(panicGrace)
				defer t.Stop()
				graceC = t.C
			}
		case <-graceC:
			dump := w.escalate("panic-grace")
			w.poison()
			collected = append(collected, drainPanics(panics)...)
			panic(fmt.Sprintf("%s\ncomm: remaining ranks did not finish within %v of the first panic; per-rank state:\n%s",
				aggregatePanics(collected), panicGrace, dump))
		case <-watchdogC:
			dump := w.escalate("watchdog")
			w.poison()
			collected = append(collected, drainPanics(panics)...)
			msg := fmt.Sprintf("comm: watchdog: world of %d ranks did not finish within %v "+
				"(likely deadlock: mismatched collectives or unmatched Recv); per-rank state:\n%s",
				w.size, w.timeout, dump)
			if len(collected) > 0 {
				msg += "\n" + aggregatePanics(collected)
			}
			panic(msg)
		}
	}
}

func drainPanics(panics chan string) []string {
	var out []string
	for {
		select {
		case p := <-panics:
			out = append(out, p)
		default:
			return out
		}
	}
}

func aggregatePanics(collected []string) string {
	if len(collected) == 1 {
		return collected[0]
	}
	return fmt.Sprintf("comm: %d ranks panicked:\n  %s",
		len(collected), strings.Join(collected, "\n  "))
}

// escalate captures the structured FailureReport the watchdog (or the
// panic-grace path) escalates with — which ranks are blocked where, what
// every mailbox holds, which reliable channels have unacked packets —
// stores it for LastFailure, and returns the human-readable rendering for
// the panic message.
func (w *World) escalate(kind string) string {
	r := w.buildReport(kind, w.timeout)
	w.lastFailure.Store(r)
	return r.String()
}

// PhaseStats returns the accumulated statistics for one phase label.
func (w *World) PhaseStats(phase string) Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.stats[phase]
}

// TotalStats returns statistics accumulated over all phases.
func (w *World) TotalStats() Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	var t Stats
	for _, s := range w.stats {
		t.Add(s)
	}
	return t
}

// Phases returns the phase labels with recorded traffic.
func (w *World) Phases() []string {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	out := make([]string, 0, len(w.stats))
	for k := range w.stats {
		out = append(out, k)
	}
	return out
}

// record meters one logical send: message count, payload bytes, and the
// in-flight high-water mark, attributed to the sender's phase.
func (w *World) record(phase string, bytes int) {
	w.statsMu.Lock()
	s := w.stats[phase]
	s.Messages++
	s.Bytes += int64(bytes)
	w.inflight[phase] += int64(bytes)
	if w.inflight[phase] > s.PeakInFlightBytes {
		s.PeakInFlightBytes = w.inflight[phase]
	}
	w.stats[phase] = s
	w.statsMu.Unlock()
}

// noteQueueDepth records the mailbox depth observed when a message of the
// given phase was enqueued.
func (w *World) noteQueueDepth(phase string, depth int) {
	w.statsMu.Lock()
	s := w.stats[phase]
	if int64(depth) > s.MaxQueueDepth {
		s.MaxQueueDepth = int64(depth)
		w.stats[phase] = s
	}
	w.statsMu.Unlock()
}

// noteDequeue retires a delivered message from the in-flight account.
func (w *World) noteDequeue(phase string, bytes int) {
	w.statsMu.Lock()
	w.inflight[phase] -= int64(bytes)
	w.statsMu.Unlock()
}

// Comm is one rank's endpoint into a World.  It must only be used from the
// goroutine that Run started for that rank.
type Comm struct {
	rank  int
	world *World
	st    *rankState
	phase string
	seq   int // collective sequence number for tag generation

	// phaseOps counts comm operations since the last SetPhase, which is
	// what armed crash points (World.ArmCrash) trigger on.
	phaseOps int
	// deadline, when positive, bounds every subsequent blocking receive;
	// expiry panics with a FailureDeadline CommError (SetDeadline).
	deadline time.Duration
}

// Rank returns this endpoint's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// LocalRanks returns how many ranks this process hosts: the width of the
// world's LocalSpan (Size for a single-process world).
func (c *Comm) LocalRanks() int {
	lo, hi := c.world.LocalSpan()
	return hi - lo
}

// SetPhase labels subsequent traffic for statistics attribution.  Phase
// entry is also a crash-injection site: an armed crash point targeting
// this phase with AfterOps == 0 fires here, which is how zero-traffic
// phases (and single-rank worlds) still exercise mid-phase death.
func (c *Comm) SetPhase(phase string) {
	c.phase = phase
	c.phaseOps = 0
	c.st.setPhase(phase)
	c.maybeCrash()
}

// SetDeadline bounds every subsequent blocking receive (point-to-point
// and inside collectives) by d: an operation that waits longer panics
// with a FailureDeadline *CommError, which also raises the world failure
// flag so all ranks converge on the recovery rendezvous.  The deadline is
// armed per operation, not cumulative.  d <= 0 disables (the default).
// Deadlines are the failure detector for silent rank death: a crashed
// peer never sends, so the receive times out even when nothing explicitly
// reported the crash.
func (c *Comm) SetDeadline(d time.Duration) { c.deadline = d }

// Failure returns the pending broadcast failure (a killed rank or an
// expired deadline somewhere in the world), or nil.  Epoch runners check
// it after their barrier: a kill that lands after this rank's last
// operation of the epoch would otherwise go unnoticed until the next
// blocking op.
func (c *Comm) Failure() *CommError { return c.world.Failure() }

// ResetCollectiveSeq realigns the collective tag counter.  All ranks call
// it at every epoch-attempt boundary (forest.RunEpochs): ranks abort an
// epoch at different points, so after a rollback their counters disagree
// and collectives would deadlock on mismatched tags.  Safe at any
// all-ranks synchronization point: every message of a finished epoch has
// been consumed, and stale in-flight packets of an aborted one are barred
// by the incarnation check.
func (c *Comm) ResetCollectiveSeq() { c.seq = 0 }

// noteOp is the per-operation crash/failure gate on the comm fast path:
// one atomic load each when no crash is armed and no failure is pending.
func (c *Comm) noteOp() {
	c.maybeCrash()
	if fe := c.world.life.failure.Load(); fe != nil {
		panic(fe)
	}
	c.phaseOps++
}

// Tracer returns the world's attached tracer, or nil.  The nil tracer is
// safe to call, so instrumented code needs no guard:
//
//	defer c.Tracer().Begin(c.Rank(), "ghost", "forest").End()
func (c *Comm) Tracer() *obs.Tracer { return c.world.Tracer() }

// Send delivers data to rank dst with the given tag.  It blocks only under
// mailbox backpressure.  Tags must be non-negative; negative tags are
// reserved for collectives.
func (c *Comm) Send(dst, tag int, data []byte) {
	if tag < 0 {
		panic("comm: negative tags are reserved")
	}
	c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", dst))
	}
	c.world.checkLive()
	c.noteOp()
	c.world.record(c.phase, len(data))
	c.traceSend(len(data))
	c.world.post(c.rank, dst, tag, data, c.phase)
}

// AddRawBytes credits n codec-independent (WireV0-equivalent) payload
// bytes to the caller's current phase.  Producers that encode under a
// selectable wire codec call this next to Send with the size the same
// payload would have under WireV0, so Stats carries the per-phase
// compression ratio.  Collectives that forward a block multiple times
// (Allgatherv's ring) must scale their raw size accordingly.
func (c *Comm) AddRawBytes(n int) {
	if n <= 0 {
		return
	}
	w := c.world
	w.statsMu.Lock()
	s := w.stats[c.phase]
	s.RawBytes += int64(n)
	w.stats[c.phase] = s
	w.statsMu.Unlock()
}

// traceSend mirrors the logical send meters into the tracer's per-rank
// counters (the Stats map itself is world-global, not per rank).
func (c *Comm) traceSend(bytes int) {
	if tr := c.world.Tracer(); tr != nil {
		tr.Add(c.rank, "comm/msgs", 1)
		tr.Add(c.rank, "comm/bytes", int64(bytes))
	}
}

// recvBlocking performs a blocking mailbox take with the rank's published
// state set to op, so the watchdog can name what this rank is waiting for.
func (c *Comm) recvBlocking(src, tag int, op string) message {
	c.noteOp()
	var dl time.Time
	if c.deadline > 0 {
		dl = time.Now().Add(c.deadline)
	}
	c.st.block(op)
	defer c.st.unblock()
	return c.world.inboxes[c.rank].take(src, tag, dl, op)
}

// Recv blocks until a message with the given tag arrives from rank src and
// returns its payload.
func (c *Comm) Recv(src, tag int) []byte {
	if tag < 0 {
		panic("comm: negative tags are reserved")
	}
	sp := c.Tracer().Begin(c.rank, "Recv", "p2p")
	defer sp.End()
	return c.recvBlocking(src, tag, fmt.Sprintf("Recv(src=%d, tag=%d)", src, tag)).data
}

// RecvAny blocks until a message with the given tag arrives from any rank
// and returns its source and payload.
func (c *Comm) RecvAny(tag int) (src int, data []byte) {
	if tag < 0 {
		panic("comm: negative tags are reserved")
	}
	sp := c.Tracer().Begin(c.rank, "RecvAny", "p2p")
	defer sp.End()
	m := c.recvBlocking(-1, tag, fmt.Sprintf("RecvAny(tag=%d)", tag))
	return m.src, m.data
}

// collectiveTag produces a fresh reserved tag for one collective call.  All
// ranks must invoke collectives in the same order (SPMD discipline), which
// keeps their sequence numbers aligned.
func (c *Comm) collectiveTag(op int) int {
	c.seq++
	return -(c.seq*8 + op)
}

const (
	opBarrier = iota + 1
	opGather
	opNotify
)

// Barrier blocks until all ranks have entered it.  It uses a dissemination
// barrier: ceil(log2 P) point-to-point rounds.
func (c *Comm) Barrier() {
	sp := c.Tracer().Begin(c.rank, "Barrier", "collective")
	defer sp.End()
	tag := c.collectiveTag(opBarrier)
	p := c.world.size
	for dist := 1; dist < p; dist *= 2 {
		dst := (c.rank + dist) % p
		src := (c.rank - dist + p) % p
		c.sendCollective(dst, tag, nil)
		c.recvCollective(src, tag, fmt.Sprintf("Barrier #%d (dissemination dist %d, awaiting rank %d)", c.seq, dist, src))
	}
}

func (c *Comm) sendCollective(dst, tag int, data []byte) {
	c.world.checkLive()
	c.noteOp()
	c.world.record(c.phase, len(data))
	c.traceSend(len(data))
	c.world.post(c.rank, dst, tag, data, c.phase)
}

func (c *Comm) recvCollective(src, tag int, op string) []byte {
	return c.recvBlocking(src, tag, op).data
}

// Allgatherv gathers each rank's variable-length byte block on every rank,
// indexed by rank.  It uses a ring algorithm: P-1 rounds in which each rank
// forwards the most recently received block to its successor.
func (c *Comm) Allgatherv(own []byte) [][]byte {
	sp := c.Tracer().Begin(c.rank, "Allgatherv", "collective")
	defer sp.End()
	tag := c.collectiveTag(opGather)
	p := c.world.size
	blocks := make([][]byte, p)
	blocks[c.rank] = own
	if p == 1 {
		return blocks
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	cur := c.rank
	for step := 1; step < p; step++ {
		c.sendCollective(next, tag, blocks[cur])
		cur = (cur - 1 + p) % p
		blocks[cur] = c.recvCollective(prev, tag,
			fmt.Sprintf("Allgatherv #%d (ring step %d/%d, awaiting rank %d)", c.seq, step, p-1, prev))
	}
	return blocks
}

// AllgatherInt64 gathers one int64 from every rank.
func (c *Comm) AllgatherInt64(v int64) []int64 {
	blocks := c.Allgatherv(AppendInt64(nil, v))
	out := make([]int64, len(blocks))
	for i, b := range blocks {
		out[i], _ = Int64At(b, 0)
	}
	return out
}

// AllreduceSumInt64 returns the sum of v over all ranks, on every rank.
func (c *Comm) AllreduceSumInt64(v int64) int64 {
	var s int64
	for _, x := range c.AllgatherInt64(v) {
		s += x
	}
	return s
}

// AllreduceMaxInt64 returns the maximum of v over all ranks, on every rank.
func (c *Comm) AllreduceMaxInt64(v int64) int64 {
	m := v
	for _, x := range c.AllgatherInt64(v) {
		if x > m {
			m = x
		}
	}
	return m
}
