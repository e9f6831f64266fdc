package harness

import (
	"fmt"
	"strings"

	"repro/internal/forest"
)

// Shrink minimizes a failing scenario: it repeatedly tries simpler variants
// (fewer trees, then fewer ranks, then coarser refinement, then simpler
// topology and partition) and keeps any variant that still fails, until no
// candidate fails or the attempt budget is exhausted.  It returns the
// smallest failing scenario found together with its Result and the number
// of candidate runs spent.
//
// Shrinking re-executes scenarios, so it must only be called with a
// scenario for which Run reported a failure; on a passing scenario it
// returns the input unchanged.
func Shrink(sc Scenario, budget int) (Scenario, Result, int) {
	best, res, attempts := ShrinkWith(sc, budget, func(s Scenario) error { return Run(s).Err })
	return best, res, attempts
}

// ShrinkWith is Shrink with a caller-supplied failure predicate: a candidate
// is kept when failing returns non-nil.  This lets tests that check a
// property Run does not know about (e.g. the traversal no-false-prune
// invariant) still reduce their failures to minimal replayable scenarios.
// The returned Result is Run's result for the shrunken scenario, which may
// itself pass when the predicate checks something stricter than Run.
func ShrinkWith(sc Scenario, budget int, failing func(Scenario) error) (Scenario, Result, int) {
	best := sc
	attempts := 1
	if failing(sc) == nil {
		return best, Run(best), attempts
	}
	for attempts < budget {
		improved := false
		for _, cand := range shrinkCandidates(best) {
			cand = cand.Normalized()
			if cand == best {
				continue
			}
			if attempts >= budget {
				break
			}
			attempts++
			if failing(cand) != nil {
				best = cand
				improved = true
				break // restart from the new, smaller scenario
			}
		}
		if !improved {
			break
		}
	}
	return best, Run(best), attempts
}

// shrinkCandidates proposes strictly simpler variants, ordered so that the
// reductions with the biggest payoff for a human reader come first: fewer
// trees, then fewer ranks, then coarser refinement, then topology and
// bookkeeping simplifications.
func shrinkCandidates(sc Scenario) []Scenario {
	var out []Scenario
	add := func(s Scenario) { out = append(out, s) }

	// No crash: if the failure survives without the rank-kill, crash
	// injection and recovery are exonerated.  (Canaries are excluded: they
	// fail BECAUSE of the kill, so removing it can only hide the repro.)
	if sc.Crashing() && !sc.CrashCanary {
		s := sc
		s.CrashSeed, s.CrashPhase = 0, ""
		s.CrashRank, s.CrashOps = 0, 0
		add(s)
	}
	// No chaos: if the failure survives on the perfect transport, the
	// transport layer is exonerated and the repro is easier to debug.
	if sc.ChaosSeed != 0 && !sc.ChaosCanary {
		s := sc
		s.ChaosSeed = 0
		add(s)
	}
	// Serial execution: if the failure survives without the worker pool,
	// intra-rank parallelism is exonerated.  Workers 0 is the forest's
	// default, which takes a pool on a host with spare CPUs, so it is
	// tried too.  A scenario that reproduces only with a pool makes this
	// candidate pass, so Workers stays pinned in the shrunken scenario
	// (and in the repro skeleton, which renders every non-zero knob via
	// GoLiteral).
	if sc.Workers != 1 {
		s := sc
		s.Workers = 1
		add(s)
	}
	// Legacy wire format: if the failure survives on WireV0, the compact
	// codec is exonerated.
	if sc.Codec != forest.WireV0 {
		s := sc
		s.Codec = forest.WireV0
		add(s)
	}
	// Fewer trees.
	if sc.NX > 1 {
		s := sc
		s.NX = s.NX / 2
		add(s)
		s = sc
		s.NX--
		add(s)
	}
	if sc.NY > 1 {
		s := sc
		s.NY--
		add(s)
	}
	if sc.NZ > 1 {
		s := sc
		s.NZ--
		add(s)
	}
	if sc.MaskPct > 0 {
		s := sc
		s.MaskPct = 0
		add(s)
	}
	// Fewer ranks.
	if sc.Ranks > 1 {
		s := sc
		s.Ranks = 1
		add(s)
		if sc.Ranks > 2 {
			s = sc
			s.Ranks = sc.Ranks / 2
			add(s)
		}
		s = sc
		s.Ranks--
		add(s)
	}
	// Coarser refinement.
	if sc.MaxLevel > sc.BaseLevel {
		s := sc
		s.MaxLevel--
		add(s)
	}
	if sc.BaseLevel > 0 {
		s := sc
		s.BaseLevel--
		s.MaxLevel--
		add(s)
	}
	// Simpler topology and options.
	if sc.PeriodicX || sc.PeriodicY || sc.PeriodicZ {
		s := sc
		s.PeriodicX, s.PeriodicY, s.PeriodicZ = false, false, false
		add(s)
	}
	if sc.Partition != PartNone {
		s := sc
		s.Partition = PartNone
		add(s)
	}
	if sc.Notify != 0 || sc.MaxRanges != 0 {
		s := sc
		s.Notify = 0
		s.MaxRanges = 0
		add(s)
	}
	if sc.Refine == RefGraded || sc.Refine == RefRandom {
		s := sc
		s.Refine = RefFractal
		add(s)
	}
	return out
}

// ReproSource renders a self-contained Go test skeleton that replays the
// scenario, ready to paste into a _test.go file next to this package.
func ReproSource(sc Scenario, failure error) string {
	var b strings.Builder
	name := fmt.Sprintf("TestHarnessRepro_Seed%d", sc.Seed)
	if sc.Seed < 0 {
		name = fmt.Sprintf("TestHarnessRepro_SeedNeg%d", -sc.Seed)
	}
	fmt.Fprintf(&b, "// %s replays a scenario the stress harness found failing:\n", name)
	fmt.Fprintf(&b, "//   %v\n", failure)
	fmt.Fprintf(&b, "// Replay from the command line with: go run ./cmd/stress -replay %d%s\n", sc.Seed, replayFlags(sc))
	fmt.Fprintf(&b, "func %s(t *testing.T) {\n", name)
	fmt.Fprintf(&b, "\tsc := %s\n", sc.GoLiteral())
	fmt.Fprintf(&b, "\tif res := harness.Run(sc); res.Err != nil {\n")
	fmt.Fprintf(&b, "\t\tt.Fatalf(\"scenario %%v failed: %%v\", sc, res.Err)\n")
	fmt.Fprintf(&b, "\t}\n}\n")
	return b.String()
}

// replayFlags renders the extra cmd/stress flags a bare -replay of the
// seed would silently drop: a worker-pool size that differs from the
// seed's own draw (e.g. pinned with -workers during the sweep), the
// chaos leg, and the crash leg (with the kill point pinned explicitly,
// so the replayed kill lands on the same rank, phase and op count).
// The replayed seed regenerates every other knob itself; the embedded
// Scenario literal above carries all of them regardless.
func replayFlags(sc Scenario) string {
	var s string
	if sc.Workers != FromSeed(sc.Seed).Workers {
		s += fmt.Sprintf(" -workers %d", sc.Workers)
	}
	if sc.Codec != FromSeed(sc.Seed).Codec {
		s += fmt.Sprintf(" -codec %v", sc.Codec)
	}
	if sc.ChaosSeed != 0 {
		s += " -chaos <sweep base>"
	}
	if sc.Crashing() {
		r, ph, ops := sc.CrashPlan()
		s += fmt.Sprintf(" -crash-rank %d -crash-phase %s -crash-ops %d", r, ph, ops)
		if sc.CrashCanary {
			s += " -crash-canary"
		}
	}
	return s
}
