package kernels

// Packed-key kernel benchmarks over the canned chunk: Morton key
// encode/decode and successor, sort and binary searches on the two-word
// compare, the chunked Local balance pipeline, the recursive traversal and
// the WireV1 key-list codec — the kernels the production pipeline runs on.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/forest"
	"repro/internal/linear"
	"repro/internal/octant"
	"repro/internal/traverse"
)

func cannedKeys() []octant.Key {
	return octant.AppendKeys(nil, canned())
}

func benchMortonKeyEncode(b *testing.B) {
	leaves := canned()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, o := range leaves {
			sink += octant.KeyOf(o).Lo
		}
	}
	_ = sink
	perOp(b, len(leaves))
}

func benchMortonKeyDecode(b *testing.B) {
	keys := cannedKeys()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			sink += k.Octant().X
		}
	}
	_ = sink
	perOp(b, len(keys))
}

// benchKeyCarry3 measures the packed-key successor step — the single
// carry-propagating 128-bit add that replaces the per-axis Carry3 chain —
// over every canned leaf that has a successor at its level.
func benchKeyCarry3(b *testing.B) {
	root := octant.KeyOf(octant.Root(cannedDim))
	var keys []octant.Key
	for _, k := range cannedKeys() {
		if k != root.LastDescendant(k.Level()) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		b.Fatal("kernels: no canned keys with successors")
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			sink += k.Successor().Lo
		}
	}
	_ = sink
	perOp(b, len(keys))
}

// shuffled returns a deterministic permutation of the canned chunk; the
// sort kernels re-sort a copy of it every iteration.
func shuffled() []octant.Octant {
	leaves := canned()
	rng := rand.New(rand.NewSource(1234))
	rng.Shuffle(len(leaves), func(i, j int) {
		leaves[i], leaves[j] = leaves[j], leaves[i]
	})
	return leaves
}

func benchSortKeys(b *testing.B) {
	src := octant.AppendKeys(nil, shuffled())
	work := make([]octant.Key, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		linear.SortKeys(work)
	}
	perOp(b, len(src))
}

func benchLowerBoundKeys(b *testing.B) {
	keys := cannedKeys()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, q := range keys {
			sink += linear.LowerBoundKeys(keys, q)
		}
	}
	_ = sink
	perOp(b, len(keys))
}

func benchOverlapRangeKeys(b *testing.B) {
	keys := cannedKeys()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, q := range keys {
			lo, hi := linear.OverlapRangeKeys(keys, q)
			sink += hi - lo
		}
	}
	_ = sink
	perOp(b, len(keys))
}

// Local-balance pipeline kernel: phase 1 of forest.Balance applied to many
// independent leaf ranges, exactly the per-chunk work the rank-local worker
// pool distributes.  A deeper canned fractal is cut into contiguous curve
// ranges so one iteration mirrors a rank that owns localBalChunks tree
// chunks.  The serial and 4-worker variants share inputs, so the pair
// measures both pool overhead and — on multi-core hosts — speedup, while
// allocs/op stays deterministic for the CI regression gate.
const (
	localBalChunks = 32
	localBalLevel  = 6
)

// localBalanceInput builds the chunked leaf ranges the LocalBalanceKeys
// kernels consume.  The ranges partition the sorted leaf array, so each is
// a valid ascending curve segment of the tree.
func localBalanceInput() [][]octant.Key {
	leaves := octant.AppendKeys(nil, CannedLeaves(cannedDim, localBalLevel))
	chunks := make([][]octant.Key, 0, localBalChunks)
	per := (len(leaves) + localBalChunks - 1) / localBalChunks
	for lo := 0; lo < len(leaves); lo += per {
		hi := lo + per
		if hi > len(leaves) {
			hi = len(leaves)
		}
		chunks = append(chunks, leaves[lo:hi])
	}
	return chunks
}

func benchLocalBalanceKeys(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		src := localBalanceInput()
		// Reusable work buffers: the copy-in below never allocates, so
		// allocs/op is the balance path itself, not benchmark plumbing.
		work := make([][]octant.Key, len(src))
		for j := range src {
			work[j] = make([]octant.Key, 0, 2*len(src[j])+16)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range src {
				work[j] = append(work[j][:0], src[j]...)
			}
			forest.BalanceChunksKeys(work, cannedK, workers)
		}
	}
}

// Batch kernels (KeyBatch* prefix, alloc-gated in CI): batched lower
// bound, key neighbor fan and radix sort over the same canned keys as their
// scalar twins (LowerBoundKeys, SortKeysStd).

// benchKeyBatchLowerBound resolves every canned key against the whole
// sorted array in one batched call; the ascending targets let the batch
// shrink each successive search window.  Scalar twin: LowerBoundKeys.
func benchKeyBatchLowerBound(b *testing.B) {
	keys := cannedKeys()
	out := make([]int, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linear.LowerBoundKeysBatch(keys, keys, out)
	}
	perOp(b, len(keys))
}

func benchKeyBatchNeighbors(b *testing.B) {
	keys := cannedKeys()
	dirs := octant.Directions(cannedDim, cannedDim)
	out := make([]octant.Key, len(dirs))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			octant.KeyNeighbors(k, dirs, out)
			sink += out[0].Lo
		}
	}
	_ = sink
	perOp(b, len(keys)*len(dirs))
}

// benchSortKeysStd is the comparison-sort twin of KeyBatchSortRadix: the
// same shuffled keys through slices.SortFunc on the two-word compare.
func benchSortKeysStd(b *testing.B) {
	src := octant.AppendKeys(nil, shuffled())
	work := make([]octant.Key, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		slices.SortFunc(work, octant.KeyCompare)
	}
	perOp(b, len(src))
}

func benchKeyBatchSortRadix(b *testing.B) {
	src := octant.AppendKeys(nil, shuffled())
	work := make([]octant.Key, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		linear.RadixSortKeys(work)
	}
	perOp(b, len(src))
}

// benchTraverseSearchKeys measures the recursive traversal engine itself: a
// full SearchKeys over the canned chunk with a never-pruning callback, so
// ns/op is the per-leaf cost of the implicit-octree descent (window
// splitting via lower-bound searches plus the callback dispatch) with zero
// useful work in the visitor.
func benchTraverseSearchKeys(b *testing.B) {
	keys := cannedKeys()
	root := octant.KeyOf(octant.Root(cannedDim))
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		var st traverse.Stats
		traverse.SearchKeys(root, keys, func(w octant.Key, lo, hi int, isLeaf bool) bool {
			return true
		}, &st)
		sink += st.Leaves
	}
	_ = sink
	perOp(b, len(keys))
}

// Wire-codec kernels: encode/decode the canned chunk as one key list, the
// unit of work the balance query/response and partition payloads are made
// of.  The encode buffer is reused across iterations so allocs/op isolates
// what the codec itself allocates.
func benchWireEncodeKeys(codec forest.WireCodec) func(b *testing.B) {
	return func(b *testing.B) {
		keys := cannedKeys()
		var buf []byte
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = forest.EncodeKeyList(buf[:0], keys, codec)
		}
		b.ReportMetric(float64(len(buf))/float64(len(keys)), "bytes/oct")
		perOp(b, len(keys))
	}
}

func benchWireDecodeKeys(codec forest.WireCodec) func(b *testing.B) {
	return func(b *testing.B) {
		keys := cannedKeys()
		enc := forest.EncodeKeyList(nil, keys, codec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, _, err := forest.DecodeKeyList(enc, codec)
			if err != nil {
				b.Fatalf("kernels: key wire decode: %v", err)
			}
			if len(dec) != len(keys) {
				b.Fatalf("kernels: key wire decode returned %d of %d keys", len(dec), len(keys))
			}
		}
		perOp(b, len(keys))
	}
}
