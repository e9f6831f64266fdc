package harness

import (
	"testing"

	"repro/internal/forest"
)

// codecInvarianceScenarios are the fixed configurations the wire-codec
// invariance test sweeps, each at P in {1, 4, 13}: the paper's fractal
// workload on a 3D brick, a masked periodic 2D brick (the topology where a
// codec bug in tree-id or coordinate deltas would bite hardest), and a
// graded lattice case with a skewed partition and a worker pool, so the
// compact codec also runs under intra-rank parallelism.  CI runs this under
// -race, so the sweep doubles as the data-race check for the pooled-buffer
// comm path.
func codecInvarianceScenarios() []Scenario {
	var scs []Scenario
	for _, p := range []int{1, 4, 13} {
		scs = append(scs,
			// Fractal workload, 3D brick.
			Scenario{
				Dim: 3, K: 3, NX: 2, NY: 1, NZ: 1,
				Ranks: p, BaseLevel: 1, MaxLevel: 4,
				Refine: RefFractal, Partition: PartEqual,
			},
			// Masked periodic 2D brick: inactive trees plus wraparound
			// neighbors stress the per-tree delta predictor reset.
			Scenario{
				Dim: 2, K: 2, NX: 3, NY: 3, NZ: 1, PeriodicX: true,
				MaskPct: 20, MaskSeed: 0xc0dec,
				Ranks: p, BaseLevel: 1, MaxLevel: 5,
				Refine: RefRandom, RefineSeed: 0xbeef, RefinePct: 25,
				Partition: PartLevelWeighted,
			},
			// Graded refinement with a skewed partition and a worker pool.
			Scenario{
				Dim: 2, K: 1, NX: 3, NY: 2, NZ: 1,
				Ranks: p, BaseLevel: 1, MaxLevel: 6,
				Refine: RefGraded, RefineSeed: 0xfeed,
				Partition: PartFirstHeavy, Workers: 3,
			},
		)
	}
	return scs
}

// TestWireCodecInvariance requires the balanced forest to be bit-identical
// under every wire codec: the fixed-width WireV0 format and the compact
// delta-Morton WireV1 format must produce the same checksum on every
// scenario.  Each leg also passes the full differential check inside Run
// (oracle diff, audit, CheckForest), so this is the correctness guarantee
// of Forest.Wire, not just a checksum smoke test.
func TestWireCodecInvariance(t *testing.T) {
	codecs := []forest.WireCodec{forest.WireV0, forest.WireV1}
	for _, base := range codecInvarianceScenarios() {
		base := base
		var v0sum uint64
		for _, codec := range codecs {
			sc := base
			sc.Codec = codec
			sc = sc.Normalized()
			res := Run(sc)
			if res.Err != nil {
				t.Fatalf("codec=%v: %v failed: %v", codec, sc, res.Err)
			}
			if codec == codecs[0] {
				v0sum = res.Checksum
				continue
			}
			if res.Checksum != v0sum {
				t.Fatalf("codec=%v: checksum %#x != v0 checksum %#x for %v",
					codec, res.Checksum, v0sum, sc)
			}
		}
	}
}

// TestWireCodecInvarianceUnderChaos re-runs one codec-invariance scenario
// per rank count on the fault-injecting transport: the compact codec rides
// the same pooled-buffer reliable-delivery path as WireV0, so drops,
// duplicates and reordering must not perturb the balanced forest under
// either codec.
func TestWireCodecInvarianceUnderChaos(t *testing.T) {
	for _, p := range []int{4, 13} {
		base := Scenario{
			Dim: 2, K: 2, NX: 3, NY: 3, NZ: 1, PeriodicX: true,
			MaskPct: 20, MaskSeed: 0xc0dec,
			Ranks: p, BaseLevel: 1, MaxLevel: 5,
			Refine: RefRandom, RefineSeed: 0xbeef, RefinePct: 25,
			Partition: PartLevelWeighted,
		}
		var perfect uint64
		for _, codec := range []forest.WireCodec{forest.WireV0, forest.WireV1} {
			sc := base
			sc.Codec = codec
			sc = sc.Normalized()
			res := Run(sc)
			if res.Err != nil {
				t.Fatalf("codec=%v: %v failed: %v", codec, sc, res.Err)
			}
			if codec == forest.WireV0 {
				perfect = res.Checksum
			} else if res.Checksum != perfect {
				t.Fatalf("P=%d: v1 checksum %#x != v0 checksum %#x", p, res.Checksum, perfect)
			}
			chaos := Run(sc.WithChaos(uint64(1000*p) + uint64(codec) + 1))
			if chaos.Err != nil {
				t.Fatalf("codec=%v under chaos: %v failed: %v", codec, sc, chaos.Err)
			}
			if chaos.Checksum != perfect {
				t.Fatalf("codec=%v under chaos: checksum %#x != perfect-transport %#x",
					codec, chaos.Checksum, perfect)
			}
		}
	}
}
