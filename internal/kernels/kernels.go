// Package kernels defines the hot-kernel micro-benchmarks of the
// reproduction: the Carry3 three-way carry and the Table II λ decisions,
// seed-octant construction (Section IV), the two subtree balance algorithms
// (Figures 6 and 7) on a canned fractal chunk, and the packed-key kernels
// the production pipeline runs on (keykernels.go).
//
// The benchmarks live in regular (non-test) code so that cmd/bench can run
// them with testing.Benchmark and fold the ns/op into the BENCH_*.json
// record, including the chunked local-balance pipeline kernel behind the
// allocation-regression CI gate; kernels_test.go additionally registers them as ordinary Go
// benchmarks for `go test -bench`.
package kernels

import (
	"fmt"
	"testing"

	"repro/internal/balance"
	"repro/internal/forest"
	"repro/internal/linear"
	"repro/internal/octant"
)

// Kernel is one named micro-benchmark.
type Kernel struct {
	Name string
	Fn   func(b *testing.B)
}

// List returns the kernel benchmarks in a fixed order.
func List() []Kernel {
	return []Kernel{
		{"Carry3", benchCarry3},
		{"LambdaTableII", benchLambda},
		{"Seeds", benchSeeds},
		{"SubtreeBalanceNew", benchSubtreeNew},
		{"SubtreeBalanceOld", benchSubtreeOld},
		{"GhostBuild", benchGhostBuild},
		{"MortonKeyEncode", benchMortonKeyEncode},
		{"MortonKeyDecode", benchMortonKeyDecode},
		{"KeyCarry3", benchKeyCarry3},
		{"SortKeys", benchSortKeys},
		{"LowerBoundKeys", benchLowerBoundKeys},
		{"OverlapRangeKeys", benchOverlapRangeKeys},
		{"LocalBalanceKeysSerial", benchLocalBalanceKeys(1)},
		{"LocalBalanceKeysPar4", benchLocalBalanceKeys(4)},
		{"TraverseSearchKeys", benchTraverseSearchKeys},
		{"WireEncodeKeysV1", benchWireEncodeKeys(forest.WireV1)},
		{"WireDecodeKeysV1", benchWireDecodeKeys(forest.WireV1)},
		{"KeyBatchLowerBound", benchKeyBatchLowerBound},
		{"KeyBatchNeighbors", benchKeyBatchNeighbors},
		{"SortKeysStd", benchSortKeysStd},
		{"KeyBatchSortRadix", benchKeyBatchSortRadix},
	}
}

const (
	cannedDim   = 3
	cannedLevel = 4
	cannedK     = cannedDim
)

// CannedLeaves builds the deterministic fractal leaf set every kernel runs
// on: starting from the root, children with identifiers 0, 3, 5 and 6
// split recursively up to maxLevel — the Figure 15 refinement rule applied
// to a single tree.  The result is sorted and linear.
func CannedLeaves(dim, maxLevel int) []octant.Octant {
	var out []octant.Octant
	var rec func(o octant.Octant)
	rec = func(o octant.Octant) {
		split := int(o.Level) < maxLevel
		if split && o.Level > 0 {
			switch o.ChildID() {
			case 0, 3, 5, 6:
			default:
				split = false
			}
		}
		if !split {
			out = append(out, o)
			return
		}
		for ci := 0; ci < octant.NumChildren(dim); ci++ {
			rec(o.Child(ci))
		}
	}
	rec(octant.Root(dim))
	return out
}

func canned() []octant.Octant { return CannedLeaves(cannedDim, cannedLevel) }

func benchCarry3(b *testing.B) {
	triples := carryTriples()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, t := range triples {
			sink += balance.Carry3(t[0], t[1], t[2])
		}
	}
	_ = sink
	perOp(b, len(triples))
}

func benchLambda(b *testing.B) {
	dbars := lambdaInputs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		for k := 1; k <= cannedDim; k++ {
			for _, d := range dbars {
				sink += balance.Lambda(cannedDim, k, d)
			}
		}
	}
	_ = sink
	perOp(b, cannedDim*len(dbars))
}

func benchSeeds(b *testing.B) {
	pairs := seedPairs()
	if len(pairs) == 0 {
		b.Fatal("kernels: no influencing (o, r) pairs in the canned chunk")
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			seeds, _ := balance.Seeds(p[0], p[1], cannedK)
			sink += len(seeds)
		}
	}
	_ = sink
	perOp(b, len(pairs))
}

func benchSubtreeNew(b *testing.B) {
	root := octant.Root(cannedDim)
	leaves := canned()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := make([]octant.Octant, len(leaves))
		copy(in, leaves)
		balance.SubtreeNew(root, in, cannedK)
	}
}

func benchSubtreeOld(b *testing.B) {
	root := octant.Root(cannedDim)
	leaves := canned()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := make([]octant.Octant, len(leaves))
		copy(in, leaves)
		balance.SubtreeOld(root, in, cannedK)
	}
}

// ghostScanInput builds the synthetic two-rank forest the GhostBuild kernel
// scans: one tree holding the canned fractal, split halfway along the curve
// between rank 0 (the local rank, whose chunk the forest carries) and a
// remote rank 1.  The partition table is hand-built, so the kernel runs
// without any communicator.
func ghostScanInput() (*forest.Forest, int) {
	conn := forest.NewBrick(cannedDim, 1, 1, 1, [3]bool{})
	leaves := canned()
	half := len(leaves) / 2
	f := &forest.Forest{
		Conn:  conn,
		Local: []forest.TreeChunk{forest.NewTreeChunk(0, leaves[:half])},
		GFP: []forest.Pos{
			forest.PosOf(0, leaves[0]),
			forest.PosOf(0, leaves[half]),
			{Tree: conn.NumTrees()},
		},
		NumGlobal: int64(len(leaves)),
	}
	return f, half
}

// benchGhostBuild measures the rank-local half of ghost construction — the
// recursive boundary traversal producing the sorted, deduplicated send
// schedule (forest.GhostScan) — per local leaf.
func benchGhostBuild(b *testing.B) {
	f, n := ghostScanInput()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sends, _ := f.GhostScan(0)
		sink += len(sends)
	}
	_ = sink
	perOp(b, n)
}

// perOp rescales the reported time so ns/op means nanoseconds per kernel
// invocation, not per sweep over the whole canned input set.  ReportMetric
// on the "ns/op" unit overrides both the -bench output and
// BenchmarkResult.NsPerOp, which is what cmd/bench records.
func perOp(b *testing.B, opsPerIter int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opsPerIter), "ns/op")
}

// carryTriples derives a deterministic set of three-way carry inputs from
// octant coordinate deltas in the canned chunk.
func carryTriples() [][3]int64 {
	leaves := canned()
	triples := make([][3]int64, 0, 64)
	for i := 0; i+1 < len(leaves) && len(triples) < 64; i += len(leaves) / 64 {
		d := balance.DeltaBar(leaves[i], leaves[i+1])
		triples = append(triples, [3]int64{d[0], d[1], d[2]})
	}
	return triples
}

// lambdaInputs derives parent-grid distance vectors from leaf pairs.
func lambdaInputs() [][3]int64 {
	return carryTriples()
}

// seedPairs scans the canned chunk for (o, r) pairs where the fine leaf o
// actually forces a split of the coarse leaf r (Seeds returns true), so
// the benchmark exercises the construction path, not the preclusion exit.
func seedPairs() [][2]octant.Octant {
	leaves := canned()
	var pairs [][2]octant.Octant
	for _, r := range leaves {
		for _, o := range leaves {
			if o == r || o.Overlaps(r) || int(o.Level) < int(r.Level)+2 {
				continue
			}
			if _, splits := balance.Seeds(o, r, cannedK); splits {
				pairs = append(pairs, [2]octant.Octant{o, r})
				if len(pairs) >= 32 {
					return pairs
				}
			}
		}
	}
	return pairs
}

// Verify checks the canned inputs are what the benchmarks assume; it backs
// the package's smoke test and cmd/bench's sanity check.
func Verify() error {
	leaves := canned()
	if len(leaves) < 100 {
		return fmt.Errorf("canned chunk has only %d leaves", len(leaves))
	}
	for i := 1; i < len(leaves); i++ {
		if octant.Compare(leaves[i-1], leaves[i]) >= 0 {
			return fmt.Errorf("canned chunk not strictly sorted at %d", i)
		}
	}
	if got := linear.Linearize(append([]octant.Octant(nil), leaves...)); len(got) != len(leaves) {
		return fmt.Errorf("canned chunk not linear: %d -> %d leaves", len(leaves), len(got))
	}
	if len(seedPairs()) == 0 {
		return fmt.Errorf("no influencing (o, r) pairs for the Seeds kernel")
	}
	f, _ := ghostScanInput()
	if sends, _ := f.GhostScan(0); len(sends) == 0 {
		return fmt.Errorf("synthetic two-rank forest produces no ghost sends")
	}
	return nil
}
