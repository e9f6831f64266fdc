package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/obs"
)

// balancePhases are the comm phase labels Forest.Balance attributes its
// traffic to; comm_msgs and comm_bytes sum over them.
var balancePhases = []string{"local-balance", "query", "notify", "query-response", "rebalance"}

// repOpts selects what one repetition records besides its end-to-end
// numbers.
type repOpts struct {
	rep   int
	rec   *recorder // benchmark spans; nil = off
	obs   bool      // attach an obs.Tracer to the world
	probe *probe    // run the layer probes on this repetition's world and keep its forests
}

// repResult is what one repetition measured.
type repResult struct {
	setupS      float64 // world creation + input forest, seconds
	rendezvousS float64
	balanceS    float64 // wall inside Balance, barrier to barrier on rank 0
	pipelineS   float64 // world creation → final checksum
	cpuS        float64 // process user+sys CPU inside the balance brackets
	allocB      float64 // heap bytes allocated inside the balance brackets
	liveB       float64 // live heap after a forced GC, forests still referenced
	octIn       int64   // octants entering Balance (summed over steps)
	octOut      int64   // octants leaving Balance (summed over steps)
	checksum    uint64
	phases      forest.PhaseTimes // cross-rank maximum, summed over steps
	imbalance   float64           // max/mean of per-rank PhaseTimes.Total()
	stats       map[string]comm.Stats
	net         comm.NetStats // netcomm counters inside the balance brackets
}

func (r repResult) commTotals() (msgs, bytes int64) {
	for _, ph := range balancePhases {
		msgs += r.stats[ph].Messages
		bytes += r.stats[ph].Bytes
	}
	return msgs, bytes
}

// meter is the shared measurement state of one repetition.  Rank 0 owns
// the scalar fields; every rank writes only its own slot of the per-rank
// slices; errs is guarded by mu.
type meter struct {
	in   *input
	cl   *cluster
	opts repOpts
	t0   time.Time

	res       repResult
	baseStats map[string]comm.Stats // meters at the end of set-up
	rankSpan  []int
	phases    []forest.PhaseTimes

	mu   sync.Mutex
	errs []error
}

func (m *meter) fail(err error) {
	m.mu.Lock()
	m.errs = append(m.errs, err)
	m.mu.Unlock()
}

// call runs one call into the program under a span and a comm phase label
// of its own (Balance and BuildGhost relabel their traffic themselves).
func (m *meter) call(c *comm.Comm, name string, fn func()) {
	c.SetPhase("bench/" + name)
	id := m.opts.rec.begin(name, c.Rank(), m.opts.rep, m.rankSpan[c.Rank()])
	fn()
	m.opts.rec.end(id)
	c.SetPhase("default")
}

func (m *meter) barrier(c *comm.Comm) {
	c.SetPhase("bench/barrier")
	c.Barrier()
	c.SetPhase("default")
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// balance is one timed Balance call: all ranks meet at a barrier, rank 0
// reads the clocks, every rank runs the collective with the default
// options, all ranks meet again, rank 0 reads the clocks again.
func (m *meter) balance(c *comm.Comm, f *forest.Forest) {
	in := f.NumGlobal
	m.barrier(c)
	var (
		start time.Time
		cpu   time.Duration
		alloc uint64
		net   comm.NetStats
	)
	if c.Rank() == 0 {
		net = m.cl.netStats()
		alloc = readMetric("/gc/heap/allocs:bytes")
		cpu = processCPU()
		start = time.Now()
	}
	var pt forest.PhaseTimes
	m.call(c, "balance", func() { pt = f.Balance(c, m.in.k, forest.BalanceOptions{}) })
	m.barrier(c)
	if c.Rank() == 0 {
		m.res.balanceS += time.Since(start).Seconds()
		m.res.cpuS += (processCPU() - cpu).Seconds()
		m.res.allocB += float64(readMetric("/gc/heap/allocs:bytes") - alloc)
		addNet(&m.res.net, m.cl.netStats(), 1)
		addNet(&m.res.net, net, -1)
		m.res.octIn += in
		m.res.octOut += f.NumGlobal
	}
	p := &m.phases[c.Rank()]
	p.LocalBalance += pt.LocalBalance
	p.Notify += pt.Notify
	p.QueryResponse += pt.QueryResponse
	p.Rebalance += pt.Rebalance
}

// body is what every rank runs: set-up, the timed pipeline, the checks.
func (m *meter) body(c *comm.Comm) {
	in, rank := m.in, c.Rank()
	m.rankSpan[rank] = m.opts.rec.begin("rank", rank, m.opts.rep, -1)
	defer func() { m.opts.rec.end(m.rankSpan[rank]) }()

	// Set-up: build the input forest.
	var f *forest.Forest
	m.call(c, "new_uniform", func() { f = forest.NewUniform(in.conn, c, in.baseLevel) })
	m.call(c, "refine", func() { f.Refine(c, in.maxLevel, in.refine(0)) })
	m.call(c, "partition", func() { f.Partition(c, nil) })
	if in.steps > 0 {
		m.call(c, "setup_balance", func() { f.Balance(c, in.k, forest.BalanceOptions{}) })
	}
	m.barrier(c)
	if rank == 0 {
		m.res.setupS = time.Since(m.t0).Seconds()
		for _, ph := range balancePhases {
			m.baseStats[ph] = m.cl.phaseStats(ph)
		}
		runtime.GC()
	}

	// The timed pipeline.
	var ghost *forest.GhostLayer
	var sum uint64
	if in.steps == 0 {
		m.opts.probe.input(c, f)
		m.balance(c, f)
		m.call(c, "checksum", func() { sum = f.Checksum(c) })
	}
	for step := 1; step <= in.steps; step++ {
		m.call(c, "refine", func() { f.Refine(c, in.maxLevel, in.refine(step)) })
		m.call(c, "coarsen", func() { f.Coarsen(c, in.coarsen(step)) })
		m.call(c, "partition", func() { f.Partition(c, nil) })
		m.opts.probe.input(c, f)
		m.balance(c, f)
		m.call(c, "ghost", func() { ghost = f.BuildGhost(c) })
		// Fold the step checksums, so a wrong intermediate mesh shows
		// even if a later step would repair it.
		m.call(c, "checksum", func() { sum = bits.RotateLeft64(sum, 1) ^ f.Checksum(c) })
	}
	if rank == 0 {
		m.res.pipelineS = time.Since(m.t0).Seconds()
		m.res.checksum = sum
	}

	// Checks and memory, outside every timed interval.
	if err := f.Validate(); err != nil {
		m.fail(fmt.Errorf("rank %d: %w", rank, err))
	}
	m.barrier(c)
	if rank == 0 {
		runtime.GC()
		m.res.liveB = float64(readMetric("/memory/classes/heap/objects:bytes"))
	}
	m.barrier(c)
	runtime.KeepAlive(f) // every rank's forest counts as live heap
	if m.opts.probe != nil {
		m.opts.probe.collective(m, c, f, ghost)
	}
}

// runRep runs one repetition of a workload's input on a fresh world.
func runRep(wl workloadDef, in *input, sockDir string, opts repOpts) (res repResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("repetition panicked: %v", p)
		}
	}()
	m := &meter{
		in: in, opts: opts, t0: time.Now(),
		baseStats: make(map[string]comm.Stats),
		rankSpan:  make([]int, wl.ranks),
		phases:    make([]forest.PhaseTimes, wl.ranks),
	}
	world := opts.rec.begin("world", driverTrack, opts.rep, -1)
	m.cl, err = newCluster(wl.ranks, wl.socket, sockDir)
	opts.rec.end(world)
	if err != nil {
		return res, err
	}
	defer m.cl.close()
	if opts.obs {
		m.cl.setTracer(obs.NewTracer(wl.ranks))
	}
	if err := m.cl.run(m.body); err != nil {
		return res, err
	}
	if len(m.errs) > 0 {
		return res, m.errs[0]
	}

	res = m.res
	res.rendezvousS = m.cl.rendezvous.Seconds()
	res.stats = make(map[string]comm.Stats)
	for _, ph := range balancePhases {
		st := m.cl.phaseStats(ph)
		base := m.baseStats[ph]
		st.Messages -= base.Messages
		st.Bytes -= base.Bytes
		res.stats[ph] = st
	}
	for _, ph := range []string{"bench/partition", "bench/notify"} {
		res.stats[ph] = m.cl.phaseStats(ph)
	}
	var total, worst time.Duration
	for _, pt := range m.phases {
		res.phases = res.phases.Max(pt)
		total += pt.Total()
		worst = max(worst, pt.Total())
	}
	if total > 0 {
		res.imbalance = float64(worst) * float64(len(m.phases)) / float64(total)
	}
	return res, nil
}
