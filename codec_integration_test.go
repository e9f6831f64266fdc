package octbalance_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"

	octbalance "repro"
)

func codecExperiment(p int, codec octbalance.WireCodec) octbalance.Experiment {
	return octbalance.Experiment{
		Conn:      octbalance.FractalForest(2),
		Ranks:     p,
		BaseLevel: 1,
		MaxLevel:  5,
		Refine:    octbalance.FractalRefine(5),
		Codec:     codec,
	}
}

// TestStatsCodecInvariance pins the accounting contract of the compact wire
// codec: switching WireV0 -> WireV1 must not change what is said (octant
// counts, per-phase message counts, raw WireV0-equivalent volume), only how
// many bytes it takes to say it.  On the codec-metered balance phases the
// compact format must be at least 2x smaller — the tentpole's headline
// claim, asserted here on the paper's fractal workload.
func TestStatsCodecInvariance(t *testing.T) {
	for _, p := range []int{4, 13} {
		v0 := codecExperiment(p, octbalance.WireV0).Run()
		v1 := codecExperiment(p, octbalance.WireV1).Run()

		if v0.OctantsBefore != v1.OctantsBefore || v0.OctantsAfter != v1.OctantsAfter {
			t.Fatalf("P=%d: octant counts differ across codecs: %d->%d vs %d->%d",
				p, v0.OctantsBefore, v0.OctantsAfter, v1.OctantsBefore, v1.OctantsAfter)
		}
		for phase, st0 := range v0.Comm {
			st1, ok := v1.Comm[phase]
			if !ok {
				t.Errorf("P=%d phase %s: present under v0, missing under v1", p, phase)
				continue
			}
			if st0.Messages != st1.Messages {
				t.Errorf("P=%d phase %s: %d messages under v0, %d under v1 — the codec changed the protocol",
					p, phase, st0.Messages, st1.Messages)
			}
			// Raw bytes are the codec-independent WireV0-equivalent volume,
			// so they must agree exactly wherever the phase is metered.
			if st0.RawBytes != st1.RawBytes {
				t.Errorf("P=%d phase %s: raw bytes %d under v0, %d under v1",
					p, phase, st0.RawBytes, st1.RawBytes)
			}
		}
		// The balance phases carry only codec-metered payloads, so under v0
		// the raw meter must reproduce the logical byte meter exactly, and
		// under v1 the logical bytes must shrink — by at least 2x on the
		// query/response path.
		for _, phase := range []string{"notify", "query-response"} {
			st0, st1 := v0.Comm[phase], v1.Comm[phase]
			if st0.Bytes == 0 {
				t.Fatalf("P=%d phase %s: no traffic — the invariance check is vacuous", p, phase)
			}
			if st0.RawBytes != st0.Bytes {
				t.Errorf("P=%d phase %s: v0 raw bytes %d != logical bytes %d",
					p, phase, st0.RawBytes, st0.Bytes)
			}
			if st1.Bytes > st0.Bytes {
				t.Errorf("P=%d phase %s: v1 grew the payload: %d > %d bytes", p, phase, st1.Bytes, st0.Bytes)
			}
			if phase == "query-response" && st1.Bytes*2 > st0.Bytes {
				t.Errorf("P=%d phase %s: v1 %d bytes vs v0 %d — less than the required 2x reduction",
					p, phase, st1.Bytes, st0.Bytes)
			}
		}
	}
}

// TestChaosWireBytesCoverLogical runs the balance on the fault-injecting
// transport under both codecs and checks the physical accounting: every
// logical byte must have crossed the wire at least once (retransmissions
// only add), and the balanced forest must be identical across codecs and
// transports.
func TestChaosWireBytesCoverLogical(t *testing.T) {
	conn := octbalance.FractalForest(2)
	refine := octbalance.FractalRefine(5)
	for _, p := range []int{4, 13} {
		var sums []uint64
		for _, codec := range []octbalance.WireCodec{octbalance.WireV0, octbalance.WireV1} {
			tr := comm.NewChaosTransport(comm.DefaultChaosConfig(uint64(97*p) + uint64(codec) + 1))
			w := comm.NewWorldTransport(p, tr)
			w.SetTimeout(2 * time.Minute)
			forests := make([]*forest.Forest, p)
			w.Run(func(c *comm.Comm) {
				f := forest.NewUniform(conn, c, 1)
				f.Wire = codec
				f.Refine(c, 5, refine)
				f.Partition(c, nil)
				f.Balance(c, 2, forest.BalanceOptions{})
				forests[c.Rank()] = f
			})
			var logical int64
			for _, phase := range w.Phases() {
				if !strings.HasPrefix(phase, "obs/") {
					logical += w.PhaseStats(phase).Bytes
				}
			}
			net := w.NetStats()
			w.Close()
			if logical == 0 {
				t.Fatalf("P=%d codec %v: no logical traffic under chaos — vacuous", p, codec)
			}
			if net.WireBytes < logical {
				t.Errorf("P=%d codec %v: wire bytes %d < logical bytes %d — physical accounting lost traffic",
					p, codec, net.WireBytes, logical)
			}
			trees := make([][]octbalance.Octant, conn.NumTrees())
			for _, f := range forests {
				for _, tc := range f.Local {
					trees[tc.Tree] = append(trees[tc.Tree], tc.Octants()...)
				}
			}
			sums = append(sums, forest.ChecksumGlobal(trees))
		}
		if sums[0] != sums[1] {
			t.Errorf("P=%d: balanced forest checksum differs across codecs under chaos: %#x vs %#x",
				p, sums[0], sums[1])
		}
	}
}
