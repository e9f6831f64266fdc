package octbalance_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"

	octbalance "repro"
)

// volumeCase is one pinned balance run: the mesh, the rank count, and what
// the run must produce.
type volumeCase struct {
	name     string
	conn     *octbalance.Connectivity
	k        int
	maxLevel int
	refine   octbalance.RefineFunc
	ranks    int

	checksum uint64
	// Query-response traffic under WireV0.  The fixed-width format makes
	// the byte count a pure function of how many queries were asked and how
	// many seed octants came back, so a responder that drops, repeats or
	// invents a seed moves it even where the rebalance happens to rebuild
	// the same forest.
	msgs, bytes int64
}

func volumeCases() []volumeCase {
	is := octbalance.NewIceSheet(2, 8, 7)
	brick := octbalance.NewMaskedBrick(2, 4, 3, 1, [3]bool{true, false, false},
		func(x, y, z int) bool { return x != 1 || y != 1 })
	ice := func(p int, sum uint64, msgs, bytes int64) volumeCase {
		return volumeCase{name: fmt.Sprintf("icesheet/P=%d", p), conn: is.Conn, k: 2, maxLevel: is.MaxLevel(),
			refine: is.Refine, ranks: p, checksum: sum, msgs: msgs, bytes: bytes}
	}
	return []volumeCase{
		ice(1, 0x55525e172146494d, 0, 0), // self queries only: nothing on the wire
		ice(4, 0x55525e172146494d, 12, 13552),
		ice(13, 0x55525e172146494d, 122, 37912),
		{name: "masked-periodic/P=5", conn: brick, k: 2, maxLevel: 5, refine: octbalance.RandomRefine(7, 30, 5),
			ranks: 5, checksum: 0xf2e0824f2e44f36, msgs: 32, bytes: 8024},
	}
}

// TestGoldenResponseVolume pins, beside the checksum of the balanced forest,
// the WireV0 query-response volume of a responder that computes the seeds of
// every candidate leaf on its own (recorded at commit 61d1c50): collapsing
// sibling families must put exactly the same seed sets on the wire.  Under
// WireV1 the forest and the message count must agree; its byte count depends
// on the order of the payload and is only bounded.
func TestGoldenResponseVolume(t *testing.T) {
	for _, vc := range volumeCases() {
		for _, codec := range []octbalance.WireCodec{octbalance.WireV0, octbalance.WireV1} {
			w := comm.NewWorld(vc.ranks)
			w.SetTimeout(2 * time.Minute)
			forests := make([]*forest.Forest, vc.ranks)
			w.Run(func(c *comm.Comm) {
				f := forest.NewUniform(vc.conn, c, 1)
				f.Refine(c, vc.maxLevel, vc.refine)
				f.Partition(c, nil)
				f.Wire = codec
				f.Balance(c, vc.k, forest.BalanceOptions{})
				forests[c.Rank()] = f
			})
			st := w.PhaseStats("query-response")
			w.Close()
			trees := make([][]octbalance.Octant, vc.conn.NumTrees())
			for _, f := range forests {
				for _, tc := range f.Local {
					trees[tc.Tree] = append(trees[tc.Tree], tc.Octants()...)
				}
			}
			if got := forest.ChecksumGlobal(trees); got != vc.checksum {
				t.Errorf("%s %v: checksum %#x, want %#x", vc.name, codec, got, vc.checksum)
			}
			if st.Messages != vc.msgs {
				t.Errorf("%s %v: %d query-response messages, want %d", vc.name, codec, st.Messages, vc.msgs)
			}
			if codec == octbalance.WireV0 && st.Bytes != vc.bytes {
				t.Errorf("%s v0: %d query-response bytes, want %d", vc.name, st.Bytes, vc.bytes)
			}
			if codec == octbalance.WireV1 && st.Bytes*2 > vc.bytes {
				t.Errorf("%s v1: %d query-response bytes, more than half of v0's %d", vc.name, st.Bytes, vc.bytes)
			}
		}
	}
}
