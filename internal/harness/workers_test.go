package harness

import (
	"runtime"
	"testing"
)

// workerInvarianceScenarios are the fixed configurations the worker-count
// invariance test sweeps: the paper's fractal workload on the brick
// lattice, a graded (long-range interaction) lattice case, and a band of
// generator-drawn lattice scenarios.  CI runs this under -race, so the
// sweep doubles as the data-race check for the balance worker pool.
func workerInvarianceScenarios() []Scenario {
	scs := []Scenario{
		// Fractal workload, 3D brick, several ranks per tree.
		{
			Dim: 3, K: 3, NX: 2, NY: 1, NZ: 1,
			Ranks: 4, BaseLevel: 1, MaxLevel: 4,
			Refine: RefFractal, Partition: PartEqual,
		},
		// Graded refinement on a 2D lattice with a skewed partition.
		{
			Dim: 2, K: 2, NX: 3, NY: 2, NZ: 1, PeriodicX: true,
			Ranks: 6, BaseLevel: 1, MaxLevel: 6,
			Refine: RefGraded, RefineSeed: 0xfeed, Partition: PartFirstHeavy,
		},
	}
	for seed := int64(101); seed <= 104; seed++ {
		sc := FromSeed(seed)
		if sc.Ranks > 8 {
			sc.Ranks = 8 // keep the three-way sweep fast under -race
		}
		scs = append(scs, sc.Normalized())
	}
	return scs
}

// TestWorkerCountInvariance requires the balanced forest to be
// bit-identical at every worker-pool size: serial, one worker per CPU, and
// an oversubscribed pool.  Each leg also passes the full differential
// check inside Run (oracle diff, audit, CheckForest), so this is the
// determinism guarantee of Forest.Workers, not just a checksum
// smoke test.
func TestWorkerCountInvariance(t *testing.T) {
	ncpu := runtime.NumCPU()
	counts := []int{1, ncpu, 2 * ncpu}
	for _, base := range workerInvarianceScenarios() {
		base := base
		var serial uint64
		for _, w := range counts {
			sc := base
			sc.Workers = w
			sc = sc.Normalized()
			res := Run(sc)
			if res.Err != nil {
				t.Fatalf("workers=%d: %v failed: %v", w, sc, res.Err)
			}
			if w == counts[0] {
				serial = res.Checksum
				continue
			}
			if res.Checksum != serial {
				t.Fatalf("workers=%d: checksum %#x != serial checksum %#x for %v",
					w, res.Checksum, serial, sc)
			}
		}
	}
}
