package forest

import (
	"testing"

	"repro/internal/octant"
	"repro/internal/otest"
)

// The allocation bounds below sit about 10 % above the counts measured on
// go1.24; a zero count stays exactly zero.  Every test first checks that
// its canned input does real work, so no bound can pass vacuously.

// TestLocalBalanceChunkKeysAllocs bounds phase 1 of Balance: the level-6
// canned fractal cut into 32 contiguous curve ranges, each balanced by
// localBalanceChunkKeys, serially and on a 4-worker pool.  The copy-in
// reuses its buffers, so the count is the balance path itself.
func TestLocalBalanceChunkKeysAllocs(t *testing.T) {
	const k, chunks = 3, 32
	leaves := octant.AppendKeys(nil, otest.CannedLeaves(t, 3, 6))
	per := (len(leaves) + chunks - 1) / chunks
	var src [][]octant.Key
	for lo := 0; lo < len(leaves); lo += per {
		src = append(src, leaves[lo:min(lo+per, len(leaves))])
	}
	work := make([][]octant.Key, len(src))
	for i, r := range src {
		if len(r) < 2 {
			t.Fatalf("curve range %d has %d leaves; localBalanceChunkKeys would do no work", i, len(r))
		}
		work[i] = make([]octant.Key, 0, 2*len(r)+16)
	}
	for _, c := range []struct {
		name    string
		workers int
		bound   float64
	}{{"LocalBalanceKeysSerial", 1, 344}, {"LocalBalanceKeysPar4", 4, 353}} {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(10, func() {
				for i := range src {
					work[i] = append(work[i][:0], src[i]...)
				}
				parallelFor(c.workers, len(work), func(i int) {
					work[i] = localBalanceChunkKeys(work[i], k)
				})
			})
			if allocs > c.bound {
				t.Errorf("%d workers, %d ranges: %v allocations, want at most %v", c.workers, len(src), allocs, c.bound)
			}
		})
	}
}

// TestGhostScanAllocs bounds the rank-local half of ghost construction: the
// serial send schedule of rank 0 on one tree holding the level-4 canned fractal,
// split halfway along the curve with rank 1.  The partition table is
// hand-built, so no communicator is involved.
func TestGhostScanAllocs(t *testing.T) {
	leaves := otest.CannedLeaves(t, 3, 4)
	conn := NewBrick(3, 1, 1, 1, [3]bool{})
	half := len(leaves) / 2
	f := &Forest{
		Conn:      conn,
		Local:     []TreeChunk{{Tree: 0, Leaves: octant.AppendKeys(nil, leaves[:half])}},
		GFP:       []Pos{PosOf(0, leaves[0]), PosOf(0, leaves[half]), {Tree: conn.NumTrees()}},
		NumGlobal: int64(len(leaves)),
	}
	if sends, _, _ := f.ghostScan(0, 1); len(sends) == 0 {
		t.Fatal("the two-rank canned forest produces no ghost sends")
	}
	if allocs := testing.AllocsPerRun(10, func() { f.ghostScan(0, 1) }); allocs > 18 {
		t.Fatalf("ghostScan: %v allocations, want at most 18", allocs)
	}
}

// TestKeyListWireAllocs pins the WireV1 key-list codec on the level-4
// canned keys: encoding into a reused buffer allocates nothing, decoding
// allocates the result slice only.
func TestKeyListWireAllocs(t *testing.T) {
	keys := octant.AppendKeys(nil, otest.CannedLeaves(t, 3, 4))
	buf := EncodeKeyList(nil, keys, WireV1)
	t.Run("WireEncodeKeysV1", func(t *testing.T) {
		if a := testing.AllocsPerRun(10, func() { buf = EncodeKeyList(buf[:0], keys, WireV1) }); a != 0 {
			t.Errorf("EncodeKeyList: %v allocations, want 0", a)
		}
	})
	t.Run("WireDecodeKeysV1", func(t *testing.T) {
		var (
			dec []octant.Key
			err error
		)
		a := testing.AllocsPerRun(10, func() { dec, _, err = DecodeKeyList(buf, WireV1) })
		if err != nil || len(dec) != len(keys) {
			t.Fatalf("DecodeKeyList returned %d of %d keys (err %v)", len(dec), len(keys), err)
		}
		if a > 1 {
			t.Errorf("DecodeKeyList: %v allocations, want at most 1", a)
		}
	})
}
