package harness

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/octant"
	"repro/internal/otest"
	"repro/internal/traverse"
)

// This file is the metamorphic leg of the traversal suite: for seeded
// random query regions over lattice-drawn meshes, the (leaf, box) pairs the
// simultaneous traversal matches must equal the brute-force oracle's set
// exactly.  "Every oracle pair is matched" already implies that no pruned
// subtree held a leaf the oracle matches, so the no-false-prune property
// needs no view into the traversal's prune decisions.  A violation is
// shrunk to a minimal replayable scenario with the harness shrinker before
// the test reports it.

// noFalsePruneErr checks the property on one scenario and returns the first
// violation (nil when the scenario satisfies it).  The mesh is the
// scenario's refined forest, built on a single simulated rank — partition
// and transport play no role in the purely local traversal property, and
// shrinkCandidates already drives Ranks toward 1.
func noFalsePruneErr(sc Scenario) (ferr error) {
	defer func() {
		if p := recover(); p != nil {
			ferr = fmt.Errorf("panic: %v", p)
		}
	}()
	sc.Ranks = 1
	sc.ChaosSeed = 0
	sc.ChaosCanary = false
	sc = sc.Normalized()
	conn := sc.Connectivity()
	refine := sc.Refiner()
	w := comm.NewWorld(1)
	w.SetTimeout(worldTimeout)
	defer w.Close()
	w.Run(func(c *comm.Comm) {
		f := forest.NewUniform(conn, c, sc.BaseLevel)
		f.Refine(c, sc.MaxLevel, refine)
		ferr = checkNoFalsePrune(sc, f)
	})
	return ferr
}

// checkNoFalsePrune draws seeded random query regions per tree and runs the
// simultaneous traversal against the brute-force intersection oracle.
func checkNoFalsePrune(sc Scenario, f *forest.Forest) error {
	rng := otest.NewRand(sc.Seed ^ 0x7ca9e5ed)
	root := octant.KeyOf(octant.Root(sc.Dim))
	const numQueries = 6
	type pair struct{ li, qi int }
	for _, tc := range f.Local {
		leaves := tc.Octants()
		regions := make([]octant.Octant, numQueries)
		boxes := make([]traverse.Box, numQueries)
		for i := range boxes {
			// Level >= 1 keeps the insulation box from always covering the
			// whole root, so prunes actually fire; deep levels exercise
			// boxes far smaller than most subtrees.
			regions[i] = otest.RandomOctant(rng, sc.Dim, 1, sc.MaxLevel+1)
			boxes[i] = traverse.InsulationBox(regions[i])
		}
		want := make(map[pair]bool)
		for li, leaf := range leaves {
			for qi, b := range boxes {
				if b.IntersectsOctant(leaf) {
					want[pair{li, qi}] = true
				}
			}
		}
		got := make(map[pair]bool)
		traverse.SearchBoundaryKeys(root, tc.Leaves, boxes, func(li, qi int) {
			got[pair{li, qi}] = true
		}, nil)
		for p := range want {
			if !got[p] {
				return fmt.Errorf("tree %d: oracle pair leaf=%v box=%v (of region %v) missed by the traversal",
					tc.Tree, leaves[p.li], boxes[p.qi], regions[p.qi])
			}
		}
		for p := range got {
			if !want[p] {
				return fmt.Errorf("tree %d: traversal reported spurious pair leaf=%v box=%v",
					tc.Tree, leaves[p.li], boxes[p.qi])
			}
		}
	}
	return nil
}

// TestTraversalNoFalsePrune sweeps seeded scenarios through the metamorphic
// property.  Failures are shrunk with the scenario shrinker (driven by the
// property itself, not by Run) and reported as a replayable scenario
// literal, so a regression lands as a one-seed repro.
func TestTraversalNoFalsePrune(t *testing.T) {
	const shrinkBudget = 60
	for seed := int64(101); seed <= 116; seed++ {
		sc := ghostScenario(seed)
		if err := noFalsePruneErr(sc); err != nil {
			small, _, attempts := ShrinkWith(sc, shrinkBudget, noFalsePruneErr)
			t.Fatalf("no-false-prune violated: %v\nscenario: %v\nshrunk (after %d runs) to: %v\nreplay literal:\n\t%s",
				err, sc, attempts, small, small.GoLiteral())
		}
	}
}
