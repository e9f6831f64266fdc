package harness

import "testing"

// TestHarnessRepro_Seed403 replays a 3D k = 1 scenario on which the
// parallel result came out coarser than the oracle (tree 7 leaf 20, l=4
// vs l=5) while AppendSeeds seeded only a's coarse neighborhood.
// Replay from the command line with: go run ./cmd/stress -replay 403
func TestHarnessRepro_Seed403(t *testing.T) {
	sc := Scenario{
		Seed: 403,
		Dim:  3, K: 1,
		NX: 3, NY: 3, NZ: 1,
		PeriodicX: false, PeriodicY: true, PeriodicZ: false,
		Ranks: 32, BaseLevel: 1, MaxLevel: 8,
		Refine: RefGraded, RefineSeed: 0x3d704c45cf3f16e7, RefinePct: 30,
		Partition: PartLevelWeighted,
		Algo:      0, Notify: 2, MaxRanges: 0,
		Workers: 2,
		Codec:   1,
	}
	if res := Run(sc); res.Err != nil {
		t.Fatalf("scenario %v failed: %v", sc, res.Err)
	}
}

// TestHarnessRepro_Seed5386 replays the smallest 3D k = 2 scenario of the
// same under-seeding (169 leaves against the oracle's 176).
// Replay from the command line with: go run ./cmd/stress -replay 5386
func TestHarnessRepro_Seed5386(t *testing.T) {
	sc := Scenario{
		Seed: 5386,
		Dim:  3, K: 2,
		NX: 1, NY: 1, NZ: 1,
		Ranks: 11, BaseLevel: 1, MaxLevel: 5,
		Refine: RefGraded, RefineSeed: 0x5707bdf7aadf0d29, RefinePct: 29,
		Partition: PartNone,
		Algo:      0, Notify: 2, MaxRanges: 0,
		Workers: 3,
	}
	if res := Run(sc); res.Err != nil {
		t.Fatalf("scenario %v failed: %v", sc, res.Err)
	}
}
