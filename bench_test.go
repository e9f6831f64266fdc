package octbalance

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md section 3 for the experiment index, and
// EXPERIMENTS.md for measured-vs-paper results).  The cmd/ drivers produce
// the full sweep tables; these benchmarks expose the same code paths to
// `go test -bench`.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/notify"
	"repro/internal/octant"
	"repro/internal/otest"
)

// benchWorkload builds a graded input octree for the serial benchmarks.
func benchWorkload(dim int) []Octant {
	rng := rand.New(rand.NewSource(42))
	return otest.RandomGraded(rng, octant.Root(dim), 9)
}

// BenchmarkFig6SubtreeOld measures the old subtree balance algorithm
// (Figure 6) on a graded mesh, the baseline of the Local balance phase.
func BenchmarkFig6SubtreeOld(b *testing.B) {
	for _, dim := range []int{2, 3} {
		in := benchWorkload(dim)
		root := octant.Root(dim)
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				balance.SubtreeOld(root, in, dim)
			}
		})
	}
}

// BenchmarkFig7SubtreeNew measures the new subtree balance algorithm
// (Figure 7) on the same inputs; the speedup over Fig6 reproduces the
// Local balance improvement of Figure 15b.
func BenchmarkFig7SubtreeNew(b *testing.B) {
	for _, dim := range []int{2, 3} {
		in := benchWorkload(dim)
		root := octant.Root(dim)
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				balance.SubtreeNew(root, in, dim)
			}
		})
	}
}

// BenchmarkFig8Reduce measures the preclusion compression of Figure 8.
func BenchmarkFig8Reduce(b *testing.B) {
	for _, dim := range []int{2, 3} {
		in := benchWorkload(dim)
		b.Run(fmt.Sprintf("dim%d/n%d", dim, len(in)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linear.Reduce(in)
			}
		})
	}
}

// BenchmarkCompleteRoundTrip measures Reduce followed by Complete (the
// compression/recovery pair of Section III-B).
func BenchmarkCompleteRoundTrip(b *testing.B) {
	for _, dim := range []int{2, 3} {
		in := benchWorkload(dim)
		root := octant.Root(dim)
		r := linear.Reduce(in)
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linear.Complete(root, r)
			}
		})
	}
}

// BenchmarkTableIILambda measures the O(1) remote-balance decision: the λ
// formulas of Table II plus the closest-balanced-ancestor computation.
func BenchmarkTableIILambda(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	type pair struct{ o, r Octant }
	for _, dim := range []int{2, 3} {
		var pairs []pair
		for len(pairs) < 512 {
			o := otest.RandomOctant(rng, dim, 4, 9)
			r := otest.RandomOctant(rng, dim, 1, 3)
			if !r.Overlaps(o) {
				pairs = append(pairs, pair{o, r})
			}
		}
		for _, k := range []int{1, dim} {
			b.Run(fmt.Sprintf("dim%d/k%d", dim, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					balance.ClosestBalancedAncestor(p.r, p.o, k)
				}
			})
		}
	}
}

// BenchmarkFig9Seeds measures seed construction (Section IV) and, for
// contrast, BenchmarkFig4AuxiliaryRipple measures the old distance-
// dependent reconstruction it replaces.
func BenchmarkFig9Seeds(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, dim := range []int{2, 3} {
		var os, rs []Octant
		for len(os) < 512 {
			o := otest.RandomOctant(rng, dim, 5, 9)
			r := otest.RandomOctant(rng, dim, 1, 3)
			if !r.Overlaps(o) {
				os = append(os, o)
				rs = append(rs, r)
			}
		}
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				balance.Seeds(os[i%len(os)], rs[i%len(rs)], dim)
			}
		})
	}
}

// BenchmarkFig4AuxiliaryRipple reconstructs Tk(o) ∩ r through the old
// auxiliary-octant ripple at increasing o-to-r distance, demonstrating the
// distance-dependent cost that motivates Section IV.  Compare with
// BenchmarkFig9SeedReconstruction, whose cost is distance-independent.
func BenchmarkFig4AuxiliaryRipple(b *testing.B) {
	dim, k := 2, 2
	r := octant.Root(dim).Child(0)
	for _, dist := range []int32{1, 4, 16, 64} {
		h := octant.Len(9)
		o := octant.NewUnchecked(dim, 9, octant.Len(1)+dist*h, 0, 0)
		b.Run(fmt.Sprintf("dist%d", dist), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				balance.SubtreeOldExtended(r, nil, []Octant{o}, k)
			}
		})
	}
}

// BenchmarkFig9SeedReconstruction is the new-path counterpart of
// BenchmarkFig4AuxiliaryRipple.
func BenchmarkFig9SeedReconstruction(b *testing.B) {
	dim, k := 2, 2
	r := octant.Root(dim).Child(0)
	for _, dist := range []int32{1, 4, 16, 64} {
		h := octant.Len(9)
		o := octant.NewUnchecked(dim, 9, octant.Len(1)+dist*h, 0, 0)
		b.Run(fmt.Sprintf("dist%d", dist), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				balance.TkOverlap(o, r, k)
			}
		})
	}
}

// notifyBenchPattern is the SFC-local communication pattern used by the
// Section V benchmarks.
func notifyBenchPattern(p int) [][]int {
	rng := rand.New(rand.NewSource(3))
	receivers := make([][]int, p)
	for src := 0; src < p; src++ {
		for d := -2; d <= 2; d++ {
			dst := src + d
			if dst != src && dst >= 0 && dst < p {
				receivers[src] = append(receivers[src], dst)
			}
		}
		if rng.Float64() < 0.3 {
			dst := rng.Intn(p)
			if dst != src {
				receivers[src] = append(receivers[src], dst)
			}
		}
	}
	return receivers
}

// BenchmarkFig12NotifyNaive, BenchmarkNotifyRanges and BenchmarkFig13Notify
// measure the three pattern-reversal schemes (Figures 12 and 13, Section V
// and the Notify panel of Figures 15e/17e).  Bytes/op reflects total
// communication volume.
func benchNotify(b *testing.B, scheme func(*comm.Comm, []int) []int) {
	for _, p := range []int{12, 48} {
		receivers := notifyBenchPattern(p)
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				w := comm.NewWorld(p)
				w.Run(func(c *comm.Comm) {
					scheme(c, receivers[c.Rank()])
				})
				bytes += w.TotalStats().Bytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "commbytes/op")
		})
	}
}

func BenchmarkFig12NotifyNaive(b *testing.B) {
	benchNotify(b, notify.Naive)
}

func BenchmarkNotifyRanges(b *testing.B) {
	benchNotify(b, func(c *comm.Comm, r []int) []int { return notify.Ranges(c, r, 8) })
}

func BenchmarkFig13Notify(b *testing.B) {
	benchNotify(b, notify.Notify)
}

// benchBalance runs a full one-pass balance experiment per iteration and
// reports communication volume alongside time.
func benchBalance(b *testing.B, e Experiment) {
	b.Helper()
	var bytes int64
	var after int64
	var maxDepth int64
	for i := 0; i < b.N; i++ {
		res := e.Run()
		for _, st := range res.Comm {
			bytes += st.Bytes
			if st.MaxQueueDepth > maxDepth {
				maxDepth = st.MaxQueueDepth
			}
		}
		after = res.OctantsAfter
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "commbytes/op")
	b.ReportMetric(float64(after), "octants")
	b.ReportMetric(float64(maxDepth), "maxqueue")
	assertQueueBounds(b, maxDepth)
}

// assertQueueBounds enforces the backpressure invariant on every balance
// benchmark: mailboxes are bounded, so the peak queue depth observed by the
// metering must never exceed the mailbox capacity.  A breach means either
// the bound stopped being enforced or the depth accounting drifted.
func assertQueueBounds(tb testing.TB, maxDepth int64) {
	tb.Helper()
	if maxDepth > int64(comm.DefaultMailboxCap) {
		tb.Fatalf("peak mailbox depth %d exceeds the mailbox capacity %d — backpressure is not being enforced",
			maxDepth, comm.DefaultMailboxCap)
	}
}

// TestBalanceQueueDepthBounded runs the Figure 15-style workload once and
// checks the new backpressure metering end to end: the multi-rank balance
// must actually queue messages (depth > 0), stay under the mailbox bound,
// and report a peak-in-flight volume that is positive yet no larger than
// the total logical bytes of its phase.
func TestBalanceQueueDepthBounded(t *testing.T) {
	res := Experiment{
		Conn:      FractalForest(3),
		Ranks:     8,
		BaseLevel: 2,
		MaxLevel:  6,
		Refine:    FractalRefine(6),
	}.Run()
	var total CommStats
	for phase, st := range res.Comm {
		if st.PeakInFlightBytes > st.Bytes {
			t.Errorf("phase %q: peak in-flight bytes %d exceed total logical bytes %d",
				phase, st.PeakInFlightBytes, st.Bytes)
		}
		if st.Bytes > 0 && st.PeakInFlightBytes == 0 {
			t.Errorf("phase %q: moved %d bytes but recorded no in-flight peak", phase, st.Bytes)
		}
		total.Add(st)
	}
	if total.MaxQueueDepth == 0 {
		t.Fatal("multi-rank balance recorded no mailbox depth at all — the metering is dead")
	}
	assertQueueBounds(t, total.MaxQueueDepth)
	t.Logf("P=%d: %d msgs, %d bytes, peak mailbox depth %d, peak in-flight %d bytes",
		res.Ranks, total.Messages, total.Bytes, total.MaxQueueDepth, total.PeakInFlightBytes)
}

// BenchmarkFig15WeakScaling reproduces the weak-scaling configuration of
// Figure 15: the six-tree fractal forest with ~constant octants per rank,
// comparing the old and new one-pass algorithms.  (Scale is reduced to
// laptop size; `go run ./cmd/bench -ranks 1,2,8,16 -level 2,2,3,3 -algo both`
// prints the full normalized table.)
func BenchmarkFig15WeakScaling(b *testing.B) {
	for _, algo := range []Algo{AlgoOld, AlgoNew} {
		for i, p := range []int{1, 4, 8} {
			base := 2 + (i+1)/2 // grow the mesh with the rank count
			conn := FractalForest(3)
			b.Run(fmt.Sprintf("%v/P%d", algo, p), func(b *testing.B) {
				benchBalance(b, Experiment{
					Conn:      conn,
					Ranks:     p,
					BaseLevel: base,
					MaxLevel:  base + 4,
					Refine:    FractalRefine(base + 4),
					Options:   BalanceOptions{Algo: algo},
				})
			})
		}
	}
}

// BenchmarkFig17StrongScaling reproduces the strong-scaling configuration
// of Figure 17: a fixed synthetic ice-sheet mesh balanced on increasing
// rank counts, old vs new.
func BenchmarkFig17StrongScaling(b *testing.B) {
	is := NewIceSheet(2, 8, 9)
	for _, algo := range []Algo{AlgoOld, AlgoNew} {
		for _, p := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%v/P%d", algo, p), func(b *testing.B) {
				benchBalance(b, Experiment{
					Conn:      is.Conn,
					Ranks:     p,
					BaseLevel: 1,
					MaxLevel:  is.MaxLevel(),
					Refine:    is.Refine,
					Options:   BalanceOptions{Algo: algo},
				})
			})
		}
	}
}

// BenchmarkPartition measures the weighted SFC partition that the balance
// experiments depend on (Section II-A).
func BenchmarkPartition(b *testing.B) {
	conn := FractalForest(2)
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := comm.NewWorld(p)
				w.Run(func(c *comm.Comm) {
					f := NewUniformForest(conn, c, 3)
					f.Refine(c, 7, FractalRefine(7))
					f.Partition(c, nil)
				})
			}
		})
	}
}

// BenchmarkMortonCompare measures the space-filling-curve comparison at
// the bottom of every sort and search.
func BenchmarkMortonCompare(b *testing.B) {
	in := benchWorkload(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := in[i%len(in)]
		c := in[(i*7+3)%len(in)]
		octant.Compare(a, c)
	}
}

// BenchmarkNotifyRangesBudget is the ablation for the Ranges scheme: the
// range budget R trades Allgather volume against false-positive zero-length
// messages (Section V's motivation for replacing Ranges with Notify).
func BenchmarkNotifyRangesBudget(b *testing.B) {
	const p = 48
	receivers := notifyBenchPattern(p)
	for _, budget := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("R%d", budget), func(b *testing.B) {
			var bytes, falsePos int64
			for i := 0; i < b.N; i++ {
				w := comm.NewWorld(p)
				w.Run(func(c *comm.Comm) {
					got := notify.Ranges(c, receivers[c.Rank()], budget)
					exact := len(receivers[c.Rank()]) // not the same quantity, but cheap proxy below
					_ = exact
					_ = got
				})
				bytes += w.TotalStats().Bytes
			}
			_ = falsePos
			b.ReportMetric(float64(bytes)/float64(b.N), "commbytes/op")
		})
	}
}

// BenchmarkGhostLayer measures ghost construction on a balanced forest.
func BenchmarkGhostLayer(b *testing.B) {
	conn := FractalForest(2)
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := comm.NewWorld(p)
				w.Run(func(c *comm.Comm) {
					f := NewUniformForest(conn, c, 2)
					f.Refine(c, 6, FractalRefine(6))
					f.Partition(c, nil)
					f.Balance(c, 2, BalanceOptions{})
					b.StopTimer()
					b.StartTimer()
					f.BuildGhost(c)
				})
			}
		})
	}
}

// BenchmarkChecksum measures the partition-invariant forest digest.
func BenchmarkChecksum(b *testing.B) {
	conn := FractalForest(2)
	w := comm.NewWorld(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *comm.Comm) {
			f := NewUniformForest(conn, c, 3)
			f.Checksum(c)
		})
	}
}

// BenchmarkBuildNodes measures corner-node numbering with hanging nodes on
// a balanced forest (the downstream consumer of 2:1 balance).
func BenchmarkBuildNodes(b *testing.B) {
	for _, dim := range []int{2, 3} {
		conn := FractalForest(dim)
		trees := GatherGlobal(conn, 1, 1, func(c *Comm, f *Forest) {
			f.Refine(c, 4, FractalRefine(4))
			f.Balance(c, dim, BalanceOptions{})
		})
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildNodes(conn, trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBalanceAblation isolates the contribution of each new component
// (DESIGN.md §5): the paper attributes roughly half the speedup to the new
// Local balance + Query/Response and the rest to the new Local rebalance.
func BenchmarkBalanceAblation(b *testing.B) {
	conn := FractalForest(2)
	cfgs := []struct {
		name          string
		local, remote StageOverride
	}{
		{"all-old", StageOld, StageOld},
		{"new-local-only", StageNew, StageOld},
		{"new-remote-only", StageOld, StageNew},
		{"all-new", StageNew, StageNew},
	}
	for _, cfg := range cfgs {
		b.Run(cfg.name, func(b *testing.B) {
			benchBalance(b, Experiment{
				Conn: conn, Ranks: 6, BaseLevel: 3, MaxLevel: 7,
				Refine: FractalRefine(7),
				Options: BalanceOptions{
					LocalStage: cfg.local, RemoteStage: cfg.remote,
				},
			})
		})
	}
}
