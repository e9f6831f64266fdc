package octbalance

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/octant"
)

// RefineFunc decides whether to split a leaf during refinement.
type RefineFunc = func(tree int32, o Octant) bool

// Experiment configures one end-to-end balance run: build a uniform forest
// on simulated ranks, refine, partition, and 2:1-balance it.  This is the
// shared driver behind the cmd/ tools and the benchmarks.
type Experiment struct {
	// Conn is the forest connectivity (required).
	Conn *Connectivity
	// Ranks is the number of simulated ranks (required).
	Ranks int
	// BaseLevel is the uniform refinement level the forest starts from.
	BaseLevel int
	// MaxLevel bounds the adaptive refinement depth.
	MaxLevel int
	// Refine is the adaptive refinement rule applied after the uniform
	// start; nil skips adaptive refinement.
	Refine RefineFunc
	// K is the balance condition (1..dim); 0 means full corner balance
	// (k = dim), the condition used throughout the paper's evaluation.
	K int
	// Options selects the balance algorithm variants.
	Options BalanceOptions
	// Workers is the rank-local worker pool size of every rank's forest
	// (Forest.Workers: 0 = max(1, GOMAXPROCS / Ranks), 1 = serial).
	Workers int
	// Codec is the wire codec of every rank's forest (Forest.Wire).
	Codec WireCodec
	// SkipPartition leaves the post-refinement load imbalance in place.
	SkipPartition bool
	// Tracer, when non-nil, is attached to the world: every phase,
	// collective and reliable-layer event of the run lands on it, ready
	// for Chrome trace-event export.  It must have at least Ranks tracks.
	Tracer *obs.Tracer
}

// Phase labels of the one-pass balance, in execution order, as used by the
// comm meters, the tracer spans and the Result.PhaseAgg keys.
var BalancePhases = []string{"local-balance", "notify", "query-response", "rebalance"}

// PhaseTotal is the PhaseAgg key of the summed-over-phases aggregate.
const PhaseTotal = "total"

// Result reports one experiment run.
type Result struct {
	Ranks int
	K     int
	Algo  Algo
	// Workers is the rank-local worker pool size the run asked for
	// (Experiment.Workers: 0 = the default, 1 = serial).
	Workers int
	// Codec is the wire codec the run's payloads were encoded with.
	Codec         WireCodec
	OctantsBefore int64 // global leaves after refinement, before balance
	OctantsAfter  int64 // global leaves after balance
	Phases        PhaseTimes
	MaxPhases     PhaseTimes           // maximum over ranks
	Comm          map[string]CommStats // per balance phase label
	// PhaseAgg is the cross-rank aggregate (min/mean/max/imbalance, in
	// seconds) of each balance phase plus the PhaseTotal key — the
	// Figure 18/19-style breakdown.  It is computed with the world's own
	// collectives, attributed to the "obs/aggregate" phase so the balance
	// phases' volume claims stay untouched.
	PhaseAgg map[string]obs.Summary
	// Net is the physical transport traffic of the whole run (all zero on
	// the default perfect transport).
	Net comm.NetStats
}

// CommTotals sums the logical message and byte counts over all algorithm
// phases, excluding the internal "obs/" measurement phases.
func (r Result) CommTotals() (msgs, bytes int64) {
	for phase, st := range r.Comm {
		if strings.HasPrefix(phase, "obs/") {
			continue
		}
		msgs += st.Messages
		bytes += st.Bytes
	}
	return msgs, bytes
}

// RawTotal sums the codec-independent (WireV0-equivalent) byte meters over
// all algorithm phases, excluding the internal "obs/" measurement phases.
// Only codec-aware payload producers meter raw bytes, so this is the volume
// the codec dimension of cmd/bench compares across.
func (r Result) RawTotal() int64 {
	var raw int64
	for phase, st := range r.Comm {
		if strings.HasPrefix(phase, "obs/") {
			continue
		}
		raw += st.RawBytes
	}
	return raw
}

// BenchRun converts the result into its machine-readable benchmark form.
func (r Result) BenchRun() obs.BenchRun {
	run := obs.BenchRun{
		Algo:          r.Algo.String(),
		Workers:       r.Workers,
		Codec:         r.Codec.String(),
		OctantsBefore: r.OctantsBefore,
		OctantsAfter:  r.OctantsAfter,
		Phases:        r.PhaseAgg,
		Comm:          make(map[string]obs.CommVolume, len(r.Comm)),
		Net: obs.NetVolume{
			DataPackets:        r.Net.DataPackets,
			AckPackets:         r.Net.AckPackets,
			Retries:            r.Net.Retries,
			DupsDropped:        r.Net.DupsDropped,
			WireBytes:          r.Net.WireBytes,
			BackpressureStalls: r.Net.BackpressureStalls,
		},
	}
	for phase, st := range r.Comm {
		run.Comm[phase] = obs.CommVolume{
			Messages:          st.Messages,
			Bytes:             st.Bytes,
			RawBytes:          st.RawBytes,
			MaxQueueDepth:     st.MaxQueueDepth,
			PeakInFlightBytes: st.PeakInFlightBytes,
		}
	}
	run.TotalMessages, run.TotalBytes = r.CommTotals()
	run.TotalRawBytes = r.RawTotal()
	return run
}

// String formats the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("P=%d k=%d algo=%v: %d -> %d octants, total %.4gs (balance %.4gs, notify %.4gs, query/response %.4gs, rebalance %.4gs)",
		r.Ranks, r.K, r.Algo, r.OctantsBefore, r.OctantsAfter, r.MaxPhases.Total().Seconds(),
		r.MaxPhases.LocalBalance.Seconds(), r.MaxPhases.Notify.Seconds(),
		r.MaxPhases.QueryResponse.Seconds(), r.MaxPhases.Rebalance.Seconds())
}

// Run executes the experiment and returns the aggregated result.
func (e Experiment) Run() Result {
	if e.Conn == nil || e.Ranks < 1 {
		panic("octbalance: Experiment requires Conn and Ranks")
	}
	k := e.K
	if k == 0 {
		k = e.Conn.Dim()
	}
	w := comm.NewWorld(e.Ranks)
	if e.Tracer != nil {
		w.SetTracer(e.Tracer)
	}
	var (
		mu     sync.Mutex
		res    Result
		phases []PhaseTimes
	)
	res.Ranks = e.Ranks
	res.K = k
	res.Algo = e.Options.Algo
	res.Workers = e.Workers
	res.Codec = e.Codec
	phases = make([]PhaseTimes, e.Ranks)

	w.Run(func(c *comm.Comm) {
		f := forest.NewUniform(e.Conn, c, e.BaseLevel)
		f.Wire, f.Workers = e.Codec, e.Workers
		if e.Refine != nil {
			f.Refine(c, e.MaxLevel, e.Refine)
		}
		if !e.SkipPartition {
			f.Partition(c, nil)
		}
		before := f.NumGlobal
		pt := f.Balance(c, k, e.Options)
		phases[c.Rank()] = pt
		// Cross-rank phase aggregation through the world's own
		// collectives, under a dedicated phase label so the balance
		// phases' logical volume meters are left exactly as measured.
		c.SetPhase("obs/aggregate")
		vals := []float64{
			pt.LocalBalance.Seconds(), pt.Notify.Seconds(),
			pt.QueryResponse.Seconds(), pt.Rebalance.Seconds(),
			pt.Total().Seconds(),
		}
		aggs := obs.AggregateMany(c, vals)
		c.SetPhase("default")
		if c.Rank() == 0 {
			mu.Lock()
			res.OctantsBefore = before
			res.OctantsAfter = f.NumGlobal
			res.PhaseAgg = map[string]obs.Summary{
				BalancePhases[0]: aggs[0],
				BalancePhases[1]: aggs[1],
				BalancePhases[2]: aggs[2],
				BalancePhases[3]: aggs[3],
				PhaseTotal:       aggs[4],
			}
			mu.Unlock()
		}
	})

	for _, pt := range phases {
		res.MaxPhases = res.MaxPhases.Max(pt)
	}
	res.Phases = phases[0]
	res.Comm = make(map[string]CommStats)
	for _, phase := range w.Phases() {
		res.Comm[phase] = w.PhaseStats(phase)
	}
	res.Net = w.NetStats()
	return res
}

// GatherGlobal builds a uniform forest at baseLevel on every rank of a
// fresh world, runs fn, and returns the forest leaves gathered per tree — a
// convenience for tests, examples and validation against RefBalance.
func GatherGlobal(conn *Connectivity, ranks, baseLevel int, fn func(c *Comm, f *Forest)) [][]Octant {
	w := comm.NewWorld(ranks)
	forests := make([]*Forest, ranks)
	w.Run(func(c *comm.Comm) {
		f := forest.NewUniform(conn, c, baseLevel)
		fn(c, f)
		forests[c.Rank()] = f
	})
	trees := make([][]octant.Octant, conn.NumTrees())
	for _, f := range forests {
		for _, tc := range f.Local {
			trees[tc.Tree] = octant.AppendOctants(trees[tc.Tree], tc.Leaves)
		}
	}
	return trees
}
