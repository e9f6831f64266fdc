// Package harness is the randomized differential-testing and
// invariant-auditing subsystem of this reproduction.  It generates
// scenarios over the full configuration lattice of the forest — dimension,
// balance condition, brick shape, periodicity, masks, rank counts, skewed
// partitions, and refinement patterns — runs the parallel one-pass
// forest.Balance under the simulated communicator, and diffs the result
// octant-for-octant against the serial forest.RefBalance oracle.  On
// failure it shrinks the scenario to a minimal reproduction and emits a
// replayable seed plus a Go test skeleton.
//
// The methodology follows the p4est line of work (Isaac et al., Holke et
// al.), which regression-tests parallel forest algorithms by checksum and
// oracle comparison against serial references.
//
// Everything is deterministic: a Scenario is a plain value, and
// FromSeed(seed) always produces the same Scenario, whose execution is
// itself deterministic in its outcome (see the otest seed convention).
package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/forest"
	"repro/internal/octant"
	"repro/internal/otest"
)

// RefKind selects the refinement pattern applied after the uniform start.
type RefKind int

const (
	// RefUniform applies no adaptive refinement: the forest stays at
	// BaseLevel (balance must be a no-op).
	RefUniform RefKind = iota
	// RefFractal is the paper's Figure 15 fractal rule.
	RefFractal
	// RefRandom splits octants pseudo-randomly (otest.HashRefiner).
	RefRandom
	// RefGraded refines towards one focus point per tree
	// (otest.GradedRefiner), the stress case for long-range interactions.
	RefGraded
)

func (k RefKind) String() string {
	switch k {
	case RefUniform:
		return "uniform"
	case RefFractal:
		return "fractal"
	case RefRandom:
		return "random"
	case RefGraded:
		return "graded"
	}
	return fmt.Sprintf("refkind(%d)", int(k))
}

// PartMode selects how leaves are distributed over ranks before balance.
type PartMode int

const (
	// PartNone keeps the partition NewUniform produced; adaptive
	// refinement then skews it arbitrarily (some ranks huge, some tiny).
	PartNone PartMode = iota
	// PartEqual repartitions to equal leaf counts.
	PartEqual
	// PartLevelWeighted repartitions with weight 1 + level², biasing
	// boundaries towards refined regions.
	PartLevelWeighted
	// PartFirstHeavy gives tree-0 leaves 64x weight, forcing a heavily
	// skewed yet legal partition.
	PartFirstHeavy
)

func (m PartMode) String() string {
	switch m {
	case PartNone:
		return "none"
	case PartEqual:
		return "equal"
	case PartLevelWeighted:
		return "level-weighted"
	case PartFirstHeavy:
		return "first-heavy"
	}
	return fmt.Sprintf("partmode(%d)", int(m))
}

// Scenario is one randomized configuration of the differential test.  All
// fields are plain values so a Scenario can be printed, embedded in a test
// skeleton, and replayed exactly.
type Scenario struct {
	// Seed is the generator seed that produced this scenario (informational;
	// 0 for hand-built scenarios).
	Seed int64

	Dim int // 2 or 3
	K   int // balance condition, 1..Dim

	// Brick shape: NX x NY x NZ unit trees (NZ = 1 in 2D), per-axis
	// periodicity, and an optional mask removing ~MaskPct percent of the
	// grid cells (cell (0,0,0) is always kept).
	NX, NY, NZ                      int
	PeriodicX, PeriodicY, PeriodicZ bool
	MaskPct                         int
	MaskSeed                        uint64

	Ranks     int // simulated ranks, 1..64
	BaseLevel int // uniform start level
	MaxLevel  int // adaptive refinement bound

	Refine     RefKind
	RefineSeed uint64
	RefinePct  int // split probability for RefRandom, in percent

	Partition PartMode

	Algo      forest.Algo
	Notify    forest.NotifyScheme
	MaxRanges int // for NotifyRanges; 0 = default

	// Workers is the rank-local worker pool size of the scenario's forests
	// (forest.Forest.Workers), shared by the balance phases and the ghost
	// scan: 0 takes the default, which shares the host's CPUs among the
	// scenario's ranks, and 1 runs serially.  The balanced forest and the
	// ghost layer must be bit-identical at every value — the oracle diff,
	// the audit and the chaos checksum cross-check verify that on every
	// parallel scenario.
	Workers int

	// Codec is the wire codec of the scenario's forests (forest.Forest.Wire):
	// every balance, ghost and partition payload.  The balanced forest must
	// be bit-identical under every codec — the oracle diff and the checksum
	// cross-check verify that on every scenario that samples WireV1.
	Codec forest.WireCodec

	// ChaosSeed, when non-zero, runs the scenario on a seeded
	// comm.ChaosTransport (message drops, duplication, delay/reordering
	// and per-rank stalls) instead of the perfect transport.  The
	// balanced forest must come out octant-for-octant identical either
	// way — that is the transport-robustness claim the chaos sweep
	// verifies.
	ChaosSeed uint64
	// ChaosCanary additionally disables the reliable-delivery protocol,
	// so injected drops become real message loss.  A canary scenario is
	// EXPECTED to fail (deadlock caught by the watchdog, or an oracle
	// mismatch); if it passes, reliable delivery has silently stopped
	// mattering and the chaos sweep has lost its teeth.
	ChaosCanary bool

	// CrashSeed, when non-zero, arms a seeded rank-kill: one rank is
	// killed at a pipeline phase drawn from this seed (see CrashPlan),
	// respawns, and the run recovers from epoch checkpoints by rollback
	// and replay.  The recovered forest must still match the serial
	// oracle octant for octant and carry the same checksum as the
	// fault-free run — that is the crash-fault-tolerance claim the crash
	// sweep verifies.
	CrashSeed uint64
	// CrashCanary runs the same kill with checkpointing DISABLED, so the
	// kill cannot be recovered.  A crash-canary scenario is EXPECTED to
	// fail with the typed rank-death error; if it passes, crash injection
	// has silently stopped firing and the crash sweep has lost its teeth.
	CrashCanary bool
	// CrashRank, CrashPhase and CrashOps pin the kill point explicitly
	// instead of deriving it from CrashSeed (a non-empty CrashPhase
	// activates the pin).  Used by tests that sweep specific phases and
	// by replays of one exact kill point.
	CrashRank  int
	CrashPhase string
	CrashOps   int
}

// WithChaos returns a copy of the scenario that runs under seeded
// transport fault injection.
func (sc Scenario) WithChaos(seed uint64) Scenario {
	sc.ChaosSeed = seed
	return sc
}

// WithCrash returns a copy of the scenario that runs with a seeded
// rank-kill and checkpoint/rollback recovery.
func (sc Scenario) WithCrash(seed uint64) Scenario {
	sc.CrashSeed = seed
	return sc
}

// Crashing reports whether the scenario injects a rank-kill.
func (sc Scenario) Crashing() bool {
	return sc.CrashSeed != 0 || sc.CrashPhase != ""
}

// crashPhases are the pipeline phases a seeded kill can land in: the two
// construction epochs, the five phases of Balance, and the ghost exchange.
var crashPhases = []string{
	"init", "refine",
	"local-balance", "query", "notify", "query-response", "rebalance",
	"ghost",
}

// CrashPlan resolves the kill point of a crash scenario: the pinned point
// when CrashPhase is set, otherwise one derived from CrashSeed.  AfterOps
// is non-zero only in phases where every rank is guaranteed that many comm
// operations (the collective allgathers of init and refine at Ranks >= 2);
// everywhere else the kill fires at phase entry, which every rank reaches
// unconditionally — so an armed crash always fires, and the sweep can
// treat a run with zero kills as a broken injector rather than luck.
func (sc Scenario) CrashPlan() (rank int, phase string, afterOps int) {
	if sc.CrashPhase != "" {
		return sc.CrashRank, sc.CrashPhase, sc.CrashOps
	}
	h := otest.SplitMix64(sc.CrashSeed)
	if sc.Ranks > 0 {
		rank = int(h % uint64(sc.Ranks))
	}
	phase = crashPhases[(h>>16)%uint64(len(crashPhases))]
	if sc.Ranks >= 2 && (phase == "init" || phase == "refine") {
		afterOps = int((h >> 32) % 2)
	}
	return rank, phase, afterOps
}

// FromSeed deterministically derives a Scenario from one seed.
func FromSeed(seed int64) Scenario {
	rng := otest.NewRand(seed)
	sc := Random(rng)
	sc.Seed = seed
	return sc
}

// Random draws a scenario from the configuration lattice.  The distribution
// favors small configurations (they run fast, so more of them fit a time
// budget) but keeps a heavy tail of large rank counts, 3D bricks and deep
// refinements.
func Random(rng *rand.Rand) Scenario {
	var sc Scenario
	sc.Dim = 2
	if rng.Intn(3) == 0 { // 3D is ~8x the octant count; sample it less
		sc.Dim = 3
	}
	sc.K = 1 + rng.Intn(sc.Dim)

	ext := func() int { return 1 + rng.Intn(3) } // extents 1..3
	sc.NX, sc.NY, sc.NZ = ext(), ext(), 1
	if sc.Dim == 3 && rng.Intn(2) == 0 {
		sc.NZ = ext()
	}
	// Periodicity requires an extent of at least 3 trees per axis.
	if sc.NX >= 3 && rng.Intn(3) == 0 {
		sc.PeriodicX = true
	}
	if sc.NY >= 3 && rng.Intn(3) == 0 {
		sc.PeriodicY = true
	}
	if sc.Dim == 3 && sc.NZ >= 3 && rng.Intn(3) == 0 {
		sc.PeriodicZ = true
	}
	if rng.Intn(3) == 0 {
		sc.MaskPct = 10 + rng.Intn(40)
		sc.MaskSeed = rng.Uint64()
	}

	// Rank counts 1..64, biased low.
	rankChoices := []int{1, 2, 2, 3, 3, 4, 5, 5, 7, 8, 11, 16, 23, 32, 48, 64}
	sc.Ranks = rankChoices[rng.Intn(len(rankChoices))]

	sc.BaseLevel = rng.Intn(3) // 0..2
	depth := 2 + rng.Intn(4)   // 2..5 adaptive levels
	if sc.Dim == 3 && depth > 4 {
		depth = 4
	}
	// The refiners multiply whatever the uniform start provides, so cap the
	// number of base-level cells; otherwise 3D bricks at BaseLevel 2 yield
	// scenarios of 10^5+ leaves that eat the whole time budget.
	cells := func() int { return sc.NX * sc.NY * sc.NZ << (sc.Dim * sc.BaseLevel) }
	for sc.BaseLevel > 0 && cells() > 128 {
		sc.BaseLevel--
	}
	if sc.Dim == 3 && depth > 3 && cells() > 32 {
		depth = 3
	}
	sc.MaxLevel = sc.BaseLevel + depth

	sc.Refine = RefKind(1 + rng.Intn(3)) // fractal/random/graded
	if rng.Intn(12) == 0 {
		sc.Refine = RefUniform
	}
	sc.RefineSeed = rng.Uint64()
	sc.RefinePct = 12 + rng.Intn(20)
	if sc.Refine == RefGraded {
		// Graded meshes are cheap per level; let them go deeper.
		sc.MaxLevel = sc.BaseLevel + 3 + rng.Intn(6)
	}

	sc.Partition = PartMode(rng.Intn(4))
	sc.Algo = forest.Algo(rng.Intn(2))
	sc.Notify = forest.NotifyScheme(rng.Intn(3))
	if sc.Notify == forest.NotifyRanges {
		sc.MaxRanges = 1 + rng.Intn(8)
	}
	// The invariance knobs are drawn after every mesh and algorithm field,
	// in the order they were introduced, so adding or dropping the last one
	// leaves every other field of every seed as it was.
	//
	// Half of the scenarios run the local pipeline on a worker pool, so
	// worker-count invariance is exercised across the whole lattice.
	if rng.Intn(2) == 0 {
		sc.Workers = 2 + rng.Intn(3)
	}
	// Half of the scenarios use the compact wire codec, so codec invariance
	// is exercised across the whole lattice.
	if rng.Intn(2) == 0 {
		sc.Codec = forest.WireV1
	}
	return sc.Normalized()
}

// Normalized clamps a scenario back into the legal lattice.  It is applied
// after generation and after every shrink step, so shrinking cannot produce
// configurations the forest constructors reject.
func (sc Scenario) Normalized() Scenario {
	if sc.Dim != 3 {
		sc.Dim = 2
	}
	if sc.K < 1 {
		sc.K = 1
	}
	if sc.K > sc.Dim {
		sc.K = sc.Dim
	}
	clampExt := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	sc.NX, sc.NY, sc.NZ = clampExt(sc.NX), clampExt(sc.NY), clampExt(sc.NZ)
	if sc.Dim == 2 {
		sc.NZ = 1
		sc.PeriodicZ = false
	}
	if sc.NX < 3 {
		sc.PeriodicX = false
	}
	if sc.NY < 3 {
		sc.PeriodicY = false
	}
	if sc.NZ < 3 {
		sc.PeriodicZ = false
	}
	if sc.MaskPct < 0 {
		sc.MaskPct = 0
	}
	if sc.MaskPct > 90 {
		sc.MaskPct = 90
	}
	if sc.Ranks < 1 {
		sc.Ranks = 1
	}
	if sc.BaseLevel < 0 {
		sc.BaseLevel = 0
	}
	if sc.MaxLevel < sc.BaseLevel {
		sc.MaxLevel = sc.BaseLevel
	}
	if sc.RefinePct < 0 {
		sc.RefinePct = 0
	}
	if sc.RefinePct > 100 {
		sc.RefinePct = 100
	}
	if sc.Workers < 0 {
		sc.Workers = 1
	}
	if sc.Workers > 64 {
		sc.Workers = 64
	}
	if sc.Codec != forest.WireV1 {
		sc.Codec = forest.WireV0
	}
	if !sc.Crashing() {
		// No kill armed: the dependent knobs are meaningless, so zero them
		// out (shrinking relies on "crash off" being one canonical value).
		sc.CrashCanary = false
		sc.CrashRank, sc.CrashOps = 0, 0
	}
	if sc.CrashRank < 0 {
		sc.CrashRank = 0
	}
	if sc.CrashRank >= sc.Ranks {
		sc.CrashRank = sc.Ranks - 1
	}
	if sc.CrashOps < 0 {
		sc.CrashOps = 0
	}
	return sc
}

// Connectivity builds the brick connectivity the scenario describes.
func (sc Scenario) Connectivity() *forest.Connectivity {
	periodic := [3]bool{sc.PeriodicX, sc.PeriodicY, sc.PeriodicZ}
	if sc.MaskPct == 0 {
		return forest.NewBrick(sc.Dim, sc.NX, sc.NY, sc.NZ, periodic)
	}
	return forest.NewMaskedBrick(sc.Dim, sc.NX, sc.NY, sc.NZ, periodic, func(x, y, z int) bool {
		if x == 0 && y == 0 && z == 0 {
			return true // guarantee a non-empty forest
		}
		h := otest.SplitMix64(sc.MaskSeed ^ uint64(x)<<40 ^ uint64(y)<<20 ^ uint64(z))
		return h%100 >= uint64(sc.MaskPct)
	})
}

// Refiner returns the pure refinement predicate of the scenario.
func (sc Scenario) Refiner() otest.RefineFunc {
	switch sc.Refine {
	case RefFractal:
		return otest.FractalRefiner(sc.MaxLevel)
	case RefRandom:
		return otest.HashRefiner(sc.RefineSeed, sc.MaxLevel, sc.RefinePct)
	case RefGraded:
		return otest.GradedRefiner(sc.RefineSeed, sc.Dim, sc.MaxLevel)
	}
	return func(tree int32, o octant.Octant) bool { return false }
}

// Options returns the forest.BalanceOptions the scenario selects; the
// worker pool and the codec are set on the forest itself.
func (sc Scenario) Options() forest.BalanceOptions {
	return forest.BalanceOptions{Algo: sc.Algo, Notify: sc.Notify, MaxRanges: sc.MaxRanges}
}

// String is a compact one-line description for logs.
func (sc Scenario) String() string {
	per := ""
	if sc.PeriodicX {
		per += "x"
	}
	if sc.PeriodicY {
		per += "y"
	}
	if sc.PeriodicZ {
		per += "z"
	}
	if per == "" {
		per = "-"
	}
	mask := "-"
	if sc.MaskPct > 0 {
		mask = fmt.Sprintf("%d%%", sc.MaskPct)
	}
	chaos := ""
	if sc.ChaosSeed != 0 {
		chaos = fmt.Sprintf(" chaos=%d", sc.ChaosSeed)
		if sc.ChaosCanary {
			chaos += "(canary)"
		}
	}
	crash := ""
	if sc.Crashing() {
		r, ph, ops := sc.CrashPlan()
		if sc.CrashPhase != "" {
			crash = fmt.Sprintf(" crash=r%d@%s+%d", r, ph, ops)
		} else {
			crash = fmt.Sprintf(" crash=%d(r%d@%s+%d)", sc.CrashSeed, r, ph, ops)
		}
		if sc.CrashCanary {
			crash += "(canary)"
		}
	}
	wk := ""
	if sc.Workers != 0 {
		wk = fmt.Sprintf(" wk=%d", sc.Workers)
	}
	codec := ""
	if sc.Codec != forest.WireV0 {
		codec = fmt.Sprintf(" codec=%v", sc.Codec)
	}
	return fmt.Sprintf("seed=%d dim=%d k=%d brick=%dx%dx%d per=%s mask=%s P=%d lvl=%d..%d ref=%v part=%v algo=%v notify=%d%s%s%s%s",
		sc.Seed, sc.Dim, sc.K, sc.NX, sc.NY, sc.NZ, per, mask,
		sc.Ranks, sc.BaseLevel, sc.MaxLevel, sc.Refine, sc.Partition, sc.Algo, sc.Notify, wk, codec, chaos, crash)
}

// GoLiteral renders the scenario as a Go composite literal, used by the
// shrinker's repro test skeleton.  Zero-valued fields are omitted.
func (sc Scenario) GoLiteral() string {
	s := "harness.Scenario{\n"
	add := func(format string, args ...interface{}) {
		s += "\t\t" + fmt.Sprintf(format, args...) + "\n"
	}
	add("Seed: %d,", sc.Seed)
	add("Dim: %d, K: %d,", sc.Dim, sc.K)
	add("NX: %d, NY: %d, NZ: %d,", sc.NX, sc.NY, sc.NZ)
	if sc.PeriodicX || sc.PeriodicY || sc.PeriodicZ {
		add("PeriodicX: %v, PeriodicY: %v, PeriodicZ: %v,", sc.PeriodicX, sc.PeriodicY, sc.PeriodicZ)
	}
	if sc.MaskPct > 0 {
		add("MaskPct: %d, MaskSeed: %#x,", sc.MaskPct, sc.MaskSeed)
	}
	add("Ranks: %d, BaseLevel: %d, MaxLevel: %d,", sc.Ranks, sc.BaseLevel, sc.MaxLevel)
	add("Refine: harness.%s, RefineSeed: %#x, RefinePct: %d,", refKindIdent(sc.Refine), sc.RefineSeed, sc.RefinePct)
	add("Partition: harness.%s,", partModeIdent(sc.Partition))
	add("Algo: %d, Notify: %d, MaxRanges: %d,", int(sc.Algo), int(sc.Notify), sc.MaxRanges)
	if sc.Workers != 0 {
		add("Workers: %d,", sc.Workers)
	}
	if sc.Codec != 0 {
		add("Codec: %d,", int(sc.Codec))
	}
	if sc.ChaosSeed != 0 {
		add("ChaosSeed: %#x, ChaosCanary: %v,", sc.ChaosSeed, sc.ChaosCanary)
	}
	if sc.CrashSeed != 0 {
		add("CrashSeed: %#x,", sc.CrashSeed)
	}
	if sc.CrashPhase != "" {
		add("CrashRank: %d, CrashPhase: %q, CrashOps: %d,", sc.CrashRank, sc.CrashPhase, sc.CrashOps)
	}
	if sc.CrashCanary {
		add("CrashCanary: true,")
	}
	return s + "\t}"
}

func refKindIdent(k RefKind) string {
	switch k {
	case RefUniform:
		return "RefUniform"
	case RefFractal:
		return "RefFractal"
	case RefRandom:
		return "RefRandom"
	case RefGraded:
		return "RefGraded"
	}
	return fmt.Sprintf("RefKind(%d)", int(k))
}

func partModeIdent(m PartMode) string {
	switch m {
	case PartNone:
		return "PartNone"
	case PartEqual:
		return "PartEqual"
	case PartLevelWeighted:
		return "PartLevelWeighted"
	case PartFirstHeavy:
		return "PartFirstHeavy"
	}
	return fmt.Sprintf("PartMode(%d)", int(m))
}
