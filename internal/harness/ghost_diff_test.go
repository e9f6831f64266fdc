package harness

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/forest"
)

// ghostScenario derives a lattice scenario for the ghost differential,
// clamped so the audit's brute-force completeness scan runs on every rank
// (NumGlobal × local leaves within auditGhostWork) and stays fast even at
// P=13.
func ghostScenario(seed int64) Scenario {
	sc := FromSeed(seed)
	if sc.BaseLevel > 1 {
		sc.BaseLevel = 1
	}
	depth := 3
	if sc.Dim == 3 {
		depth = 2
	}
	if sc.MaxLevel > sc.BaseLevel+depth {
		sc.MaxLevel = sc.BaseLevel + depth
	}
	return sc.Normalized()
}

// runGhostDiff executes the scenario's build/refine/partition pipeline under
// the simulated world (perfect or chaos transport, per the scenario), builds
// the ghost layer with BuildGhost, and checks every rank's result with the
// audit's brute-force adjacency scan of the gathered forest: every ghost is
// a remote leaf adjacent to the local partition (soundness), and every such
// leaf is a ghost (completeness).  It fails the test if a rank's forest is
// too large for the completeness direction to run.  It returns the layers
// (rank-major) so callers can also compare runs against each other.
func runGhostDiff(t *testing.T, sc Scenario) [][]forest.GhostOctant {
	t.Helper()
	conn := sc.Connectivity()
	refine := sc.Refiner()
	w := newScenarioWorld(sc)
	defer w.Close()
	errs := make([]error, sc.Ranks)
	layers := make([][]forest.GhostOctant, sc.Ranks)
	w.Run(func(c *comm.Comm) {
		f := forest.NewUniform(conn, c, sc.BaseLevel)
		f.Wire = sc.Codec
		f.Workers = sc.Workers
		f.Refine(c, sc.MaxLevel, refine)
		applyPartition(c, f, sc.Partition)
		ghost := f.BuildGhost(c)
		global := gatherGlobal(c, f)
		var numLocal int64
		for _, tc := range f.Local {
			numLocal += int64(len(tc.Leaves))
		}
		if work := f.NumGlobal * numLocal; work > auditGhostWork {
			errs[c.Rank()] = fmt.Errorf("%d global × %d local leaves exceed auditGhostWork: the completeness check would be skipped", f.NumGlobal, numLocal)
		} else {
			errs[c.Rank()] = auditGhost(c, f, ghost, global)
		}
		layers[c.Rank()] = ghost.Octants
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("scenario %v rank %d: %v", sc, r, err)
		}
	}
	return layers
}

// TestGhostDiffLattice checks BuildGhost against the brute-force adjacency
// scan across the scenario lattice at P ∈ {1, 4, 13}.
func TestGhostDiffLattice(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sc := ghostScenario(seed)
		for _, p := range []int{1, 4, 13} {
			sc := sc
			sc.Ranks = p
			sc = sc.Normalized()
			t.Run(fmt.Sprintf("seed%d_P%d", seed, p), func(t *testing.T) {
				t.Parallel()
				runGhostDiff(t, sc)
			})
		}
	}
}

// TestGhostDiffChaos repeats the differential on a seeded chaos transport
// (drops, duplication, reordering, stalls behind the reliable-delivery
// layer): the ghost layer must still pass the brute-force check, and come
// out identical to the perfect-transport run of the same scenario.
func TestGhostDiffChaos(t *testing.T) {
	for _, seed := range []int64{2, 5} {
		sc := ghostScenario(seed)
		for _, p := range []int{4, 13} {
			sc := sc
			sc.Ranks = p
			sc = sc.Normalized()
			t.Run(fmt.Sprintf("seed%d_P%d", seed, p), func(t *testing.T) {
				t.Parallel()
				perfect := runGhostDiff(t, sc)
				chaotic := runGhostDiff(t, sc.WithChaos(uint64(seed)*0x9e3779b9+uint64(p)))
				for r := range perfect {
					if err := DiffGhostLayers(chaotic[r], perfect[r]); err != nil {
						t.Fatalf("scenario %v rank %d: chaos vs perfect transport: %v", sc, r, err)
					}
				}
			})
		}
	}
}

// TestGhostCodecAgreement pins codec invariance: the same scenario run under
// WireV0 and WireV1 must produce identical ghost layers on every rank, and
// both must pass the (codec-oblivious) brute-force check.
func TestGhostCodecAgreement(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		sc := ghostScenario(seed)
		sc.Ranks = 4
		sc = sc.Normalized()
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc0, sc1 := sc, sc
			sc0.Codec = forest.WireV0
			sc1.Codec = forest.WireV1
			v0 := runGhostDiff(t, sc0)
			v1 := runGhostDiff(t, sc1)
			for r := range v0 {
				if err := DiffGhostLayers(v1[r], v0[r]); err != nil {
					t.Fatalf("scenario %v rank %d: WireV1 vs WireV0: %v", sc, r, err)
				}
			}
		})
	}
}
