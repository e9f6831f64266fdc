package forest

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/octant"
	"repro/internal/otest"
)

// runForest builds a forest on p ranks via build, applies fn on every rank,
// and returns the per-rank forests.
func runForest(t *testing.T, conn *Connectivity, p, level int, fn func(c *comm.Comm, f *Forest)) []*Forest {
	t.Helper()
	w := comm.NewWorld(p)
	w.SetTimeout(2 * time.Minute) // deadlock watchdog
	forests := make([]*Forest, p)
	w.Run(func(c *comm.Comm) {
		f := NewUniform(conn, c, level)
		if fn != nil {
			fn(c, f)
		}
		forests[c.Rank()] = f
	})
	return forests
}

// gather merges the per-rank forests into global per-tree leaf arrays.
func gather(conn *Connectivity, forests []*Forest) [][]octant.Octant {
	trees := make([][]octant.Octant, conn.NumTrees())
	for _, f := range forests {
		for _, tc := range f.Local {
			trees[tc.Tree] = append(trees[tc.Tree], tc.Octants()...)
		}
	}
	return trees
}

func forestsEqual(a, b [][]octant.Octant) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if !otest.Equal(a[t], b[t]) {
			return false
		}
	}
	return true
}

func checkGlobalComplete(t *testing.T, conn *Connectivity, trees [][]octant.Octant) {
	t.Helper()
	root := octant.Root(conn.dim)
	for tr, leaves := range trees {
		if !linear.IsLinear(leaves) {
			t.Fatalf("tree %d not linear", tr)
		}
		if !linear.IsComplete(root, leaves) {
			t.Fatalf("tree %d not complete (%d leaves)", tr, len(leaves))
		}
	}
}

func TestConnectivityBasics(t *testing.T) {
	conn := NewBrick(2, 3, 2, 1, [3]bool{})
	if conn.NumTrees() != 6 {
		t.Fatalf("trees = %d", conn.NumTrees())
	}
	root := octant.Root(2)
	// An octant poking out the +x side of tree 0 lands in tree 1.
	o := root.Child(1).FaceNeighbor(1) // outside +x
	nt, no, shift, ok := conn.Canonicalize(0, o)
	if !ok || nt != 1 {
		t.Fatalf("canonicalize: nt=%d ok=%v", nt, ok)
	}
	if !root.IsAncestorOrEqual(no) {
		t.Fatalf("canonicalized octant %v outside root", no)
	}
	if shift.Inverse().Apply(no) != o {
		t.Fatal("shift does not invert")
	}
	// Poking out the -x side of tree 0 leaves the domain.
	o2 := root.Child(0).FaceNeighbor(0)
	if _, _, _, ok := conn.Canonicalize(0, o2); ok {
		t.Fatal("expected domain boundary")
	}
	// In-root octants are unchanged.
	nt3, no3, shift3, ok3 := conn.Canonicalize(4, root.Child(2))
	if !ok3 || nt3 != 4 || no3 != root.Child(2) || shift3 != (Shift{}) {
		t.Fatal("in-root canonicalize changed octant")
	}
}

func TestConnectivityPeriodic(t *testing.T) {
	conn := NewBrick(2, 4, 3, 1, [3]bool{true, true, false})
	root := octant.Root(2)
	// Tree 0 poking -x wraps to tree 3.
	o := root.Child(0).FaceNeighbor(0)
	nt, _, _, ok := conn.Canonicalize(0, o)
	if !ok || nt != 3 {
		t.Fatalf("periodic wrap: nt=%d ok=%v", nt, ok)
	}
	// Corner wrap: tree 0 poking (-x,-y) lands in tree index of cell (3,2).
	c := root.Child(0).Neighbor(octant.Dir{-1, -1, 0})
	nt2, _, _, ok2 := conn.Canonicalize(0, c)
	if !ok2 {
		t.Fatal("corner wrap failed")
	}
	x, y, _ := conn.TreeCell(nt2)
	if x != 3 || y != 2 {
		t.Fatalf("corner wrap landed at (%d,%d)", x, y)
	}
}

func TestConnectivityMasked(t *testing.T) {
	// L-shaped domain: remove the (1,1) cell of a 2x2 brick.
	conn := NewMaskedBrick(2, 2, 2, 1, [3]bool{}, func(x, y, z int) bool {
		return !(x == 1 && y == 1)
	})
	if conn.NumTrees() != 3 {
		t.Fatalf("trees = %d", conn.NumTrees())
	}
	root := octant.Root(2)
	// Tree at (0,1) poking +x reaches the removed cell.
	var src int32 = -1
	for tr := int32(0); tr < conn.NumTrees(); tr++ {
		if x, y, _ := conn.TreeCell(tr); x == 0 && y == 1 {
			src = tr
		}
	}
	o := root.Child(1).FaceNeighbor(1)
	if _, _, _, ok := conn.Canonicalize(src, o); ok {
		t.Fatal("expected masked cell to act as boundary")
	}
}

func TestNewUniform(t *testing.T) {
	conn := NewBrick(2, 3, 2, 1, [3]bool{})
	for _, p := range []int{1, 2, 3, 5, 13} {
		forests := runForest(t, conn, p, 2, nil)
		var total int64
		for r, f := range forests {
			if err := f.Validate(); err != nil {
				t.Fatalf("P=%d rank %d: %v", p, r, err)
			}
			total += f.NumLocal()
			if f.NumGlobal != 6*16 {
				t.Fatalf("NumGlobal = %d", f.NumGlobal)
			}
			// Equal split within one leaf.
			if d := f.NumLocal() - 6*16/int64(p); d < -1 || d > 1 {
				t.Fatalf("P=%d rank %d: %d leaves, expected ~%d", p, r, f.NumLocal(), 6*16/p)
			}
		}
		if total != 6*16 {
			t.Fatalf("P=%d: total %d leaves", p, total)
		}
		checkGlobalComplete(t, conn, gather(conn, forests))
	}
}

func TestOwnerOfConsistency(t *testing.T) {
	conn := NewBrick(3, 2, 1, 1, [3]bool{})
	forests := runForest(t, conn, 7, 2, nil)
	f0 := forests[0]
	for r, f := range forests {
		for _, tc := range f.Local {
			for _, o := range tc.Leaves {
				if owner := f0.OwnerOf(PosOfKey(tc.Tree, o)); owner != r {
					t.Fatalf("leaf %v of tree %d: OwnerOf = %d, want %d", o, tc.Tree, owner, r)
				}
			}
		}
	}
}

// TestOwnsRegionKeyMatchesOwnerRange checks the search-free "mine alone"
// test against the owner range of the same region, for every rank (some of
// them empty) and regions from the whole tree down to single leaves.
func TestOwnsRegionKeyMatchesOwnerRange(t *testing.T) {
	const p = 16 // 12 leaves: four ranks own nothing
	forests := runForest(t, NewBrick(2, 3, 1, 1, [3]bool{}), p, 1, nil)
	ot := forests[0].ownerTable()
	rng := rand.New(rand.NewSource(31))
	owned := 0
	for trial := 0; trial < 5000; trial++ {
		tree := int32(rng.Intn(3))
		w := octant.KeyOf(otest.RandomOctant(rng, 2, 0, 3))
		first, last := ot.ownersOfRegionKey(tree, w)
		for me := 0; me < p; me++ {
			got, want := ot.ownsRegionKey(me, tree, w), first == me && last == me
			if got != want {
				t.Fatalf("tree %d region %v: ownsRegionKey(%d) = %v, owners are [%d, %d]", tree, w, me, got, first, last)
			}
			if got {
				owned++
			}
		}
	}
	if owned == 0 {
		t.Fatal("no sampled region had a single owner")
	}
}

func TestRefineAndCoarsen(t *testing.T) {
	conn := NewBrick(2, 2, 1, 1, [3]bool{})
	forests := runForest(t, conn, 3, 1, func(c *comm.Comm, f *Forest) {
		before := f.NumGlobal
		f.Refine(c, 4, func(tree int32, o octant.Octant) bool {
			return tree == 0 && o.ChildID() == 0
		})
		if f.NumGlobal <= before {
			t.Errorf("refine did not grow the forest")
		}
		if err := f.Validate(); err != nil {
			t.Error(err)
		}
		// Coarsen everything coarsenable back.
		for i := 0; i < 6; i++ {
			f.Coarsen(c, func(tree int32, fam []octant.Octant) bool { return true })
		}
		if err := f.Validate(); err != nil {
			t.Error(err)
		}
	})
	// After full coarsening each rank holds ancestors only; globally the
	// forest must still be complete.
	checkGlobalComplete(t, conn, gather(conn, forests))
}

func TestPartitionUniformWeights(t *testing.T) {
	conn := NewBrick(2, 3, 1, 1, [3]bool{})
	rng := rand.New(rand.NewSource(1))
	_ = rng
	for _, p := range []int{2, 4, 7} {
		forests := runForest(t, conn, p, 2, func(c *comm.Comm, f *Forest) {
			// Unbalanced refinement concentrated in tree 0.
			f.Refine(c, 5, func(tree int32, o octant.Octant) bool {
				return tree == 0 && o.Level < 4
			})
			f.Partition(c, nil)
			if err := f.Validate(); err != nil {
				t.Error(err)
			}
		})
		var lo, hi int64 = 1 << 62, 0
		for _, f := range forests {
			n := f.NumLocal()
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if hi-lo > 1 {
			t.Fatalf("P=%d: partition imbalance %d..%d", p, lo, hi)
		}
		checkGlobalComplete(t, conn, gather(conn, forests))
	}
}

func TestPartitionPreservesOrderAndWeights(t *testing.T) {
	conn := NewBrick(2, 2, 2, 1, [3]bool{})
	p := 5
	var before [][]octant.Octant
	forests := runForest(t, conn, p, 3, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 5, func(tree int32, o octant.Octant) bool {
			return o.X == 0 && o.Y == 0 && o.Level < 5
		})
		if c.Rank() == 0 {
			// Capture global state via leaf count only; full capture
			// happens after Run through gather.
		}
		// Weighted partition: weight 1 + level.
		f.Partition(c, func(tree int32, o octant.Octant) int64 { return int64(1 + o.Level) })
		if err := f.Validate(); err != nil {
			t.Error(err)
		}
	})
	after := gather(conn, forests)
	checkGlobalComplete(t, conn, after)
	_ = before
	// Weighted balance: max rank weight should be within a leaf's weight
	// of the average.
	var weights []int64
	var total int64
	for _, f := range forests {
		var w int64
		for _, tc := range f.Local {
			for _, o := range tc.Leaves {
				w += int64(1 + o.Level())
			}
		}
		weights = append(weights, w)
		total += w
	}
	avg := total / int64(p)
	for r, w := range weights {
		if w > avg+8 || w < avg-8 {
			t.Logf("rank %d weight %d (avg %d)", r, w, avg)
		}
	}
}

// fractalRefine is the Figure 15 refinement rule: recursively split octants
// with child identifiers 0, 3, 5, 6 up to a level budget.
func fractalRefine(maxLevel int) func(tree int32, o octant.Octant) bool {
	return func(tree int32, o octant.Octant) bool {
		if int(o.Level) >= maxLevel {
			return false
		}
		switch o.ChildID() {
		case 0, 3, 5, 6:
			return true
		}
		return false
	}
}

func TestBalanceMatchesReferenceSmall(t *testing.T) {
	// The headline integration test: the parallel one-pass balance must
	// reproduce the serial reference exactly for every combination of
	// dimension, balance condition, algorithm, world size and topology.
	type topo struct {
		name string
		conn *Connectivity
	}
	topos2 := []topo{
		{"single", NewBrick(2, 1, 1, 1, [3]bool{})},
		{"brick3x2", NewBrick(2, 3, 2, 1, [3]bool{})},
		{"masked", NewMaskedBrick(2, 3, 3, 1, [3]bool{}, func(x, y, z int) bool { return x != 1 || y != 1 })},
		{"periodic", NewBrick(2, 4, 3, 1, [3]bool{true, false, false})},
	}
	topos3 := []topo{
		{"single3", NewBrick(3, 1, 1, 1, [3]bool{})},
		{"brick3x2x1", NewBrick(3, 3, 2, 1, [3]bool{})},
		{"periodic3", NewBrick(3, 3, 1, 1, [3]bool{true, false, false})},
		{"masked3", NewMaskedBrick(3, 2, 2, 2, [3]bool{}, func(x, y, z int) bool { return x+y+z < 3 })},
	}
	for _, dim := range []int{2, 3} {
		topos := topos2
		if dim == 3 {
			topos = topos3
		}
		for _, tp := range topos {
			for _, k := range kRangeDim(dim) {
				for _, p := range []int{1, 3, 5} {
					for _, algo := range []Algo{AlgoOld, AlgoNew} {
						var beforeTrees, afterTrees [][]octant.Octant
						forests := runForest(t, tp.conn, p, 1, func(c *comm.Comm, f *Forest) {
							f.Refine(c, 4, fractalRefine(4))
							f.Partition(c, nil)
						})
						beforeTrees = gather(tp.conn, forests)
						want := RefBalance(tp.conn, beforeTrees, k)

						w := comm.NewWorld(p)
						balanced := make([]*Forest, p)
						w.Run(func(c *comm.Comm) {
							f := NewUniform(tp.conn, c, 1)
							f.Refine(c, 4, fractalRefine(4))
							f.Partition(c, nil)
							f.Balance(c, k, BalanceOptions{Algo: algo})
							if err := f.Validate(); err != nil {
								t.Error(err)
							}
							balanced[c.Rank()] = f
						})
						afterTrees = gather(tp.conn, balanced)
						if !forestsEqual(afterTrees, want) {
							t.Fatalf("dim=%d topo=%s k=%d P=%d algo=%v: parallel balance != reference",
								dim, tp.name, k, p, algo)
						}
						if err := CheckForest(tp.conn, afterTrees, k); err != nil {
							t.Fatalf("dim=%d topo=%s: %v", dim, tp.name, err)
						}
					}
				}
			}
		}
	}
}

func kRangeDim(dim int) []int {
	if dim == 2 {
		return []int{1, 2}
	}
	return []int{1, 2, 3}
}

func TestBalanceMatchesReferenceGraded(t *testing.T) {
	// Highly graded random meshes across several ranks: the stress case
	// for long-range balance interactions.
	rng := rand.New(rand.NewSource(7))
	conn := NewBrick(2, 2, 2, 1, [3]bool{})
	for trial := 0; trial < 6; trial++ {
		p := 2 + rng.Intn(6)
		k := 1 + rng.Intn(2)
		algo := Algo(rng.Intn(2))
		seed := rng.Int63()
		maxL := 6
		refine := func(tree int32, o octant.Octant) bool {
			// Deterministic pseudo-random pocket refinement.
			h := uint64(tree)*1000003 ^ uint64(o.X)*2654435761 ^ uint64(o.Y)*40503 ^ uint64(seed)
			h ^= h >> 13
			return int(o.Level) < maxL && h%100 < 22
		}
		forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
			f.Refine(c, maxL, refine)
			f.Partition(c, nil)
			f.Balance(c, k, BalanceOptions{Algo: algo})
		})
		after := gather(conn, forests)

		ref := runForest(t, conn, 1, 1, func(c *comm.Comm, f *Forest) {
			f.Refine(c, maxL, refine)
		})
		want := RefBalance(conn, gather(conn, ref), k)
		if !forestsEqual(after, want) {
			t.Fatalf("trial %d (P=%d k=%d algo=%v seed=%d): balance mismatch", trial, p, k, algo, seed)
		}
		checkGlobalComplete(t, conn, after)
	}
}

func TestBalanceNotifySchemesAgree(t *testing.T) {
	conn := NewBrick(2, 3, 2, 1, [3]bool{})
	p, k := 6, 2
	var results [][][]octant.Octant
	for _, scheme := range []NotifyScheme{NotifyNaive, NotifyRanges, NotifyDC} {
		forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
			f.Refine(c, 4, fractalRefine(4))
			f.Partition(c, nil)
			f.Balance(c, k, BalanceOptions{Algo: AlgoNew, Notify: scheme, MaxRanges: 2})
		})
		results = append(results, gather(conn, forests))
	}
	if !forestsEqual(results[0], results[1]) || !forestsEqual(results[0], results[2]) {
		t.Fatal("notify schemes produce different balanced forests")
	}
}

func TestBalanceIdempotent(t *testing.T) {
	conn := NewBrick(3, 2, 1, 1, [3]bool{})
	p, k := 4, 3
	var first, second [][]octant.Octant
	forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 3, fractalRefine(3))
		f.Partition(c, nil)
		f.Balance(c, k, BalanceOptions{Algo: AlgoNew})
	})
	first = gather(conn, forests)
	forests2 := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 3, fractalRefine(3))
		f.Partition(c, nil)
		f.Balance(c, k, BalanceOptions{Algo: AlgoNew})
		f.Balance(c, k, BalanceOptions{Algo: AlgoNew})
	})
	second = gather(conn, forests2)
	if !forestsEqual(first, second) {
		t.Fatal("balance is not idempotent")
	}
}

func TestBalanceCommunicationVolume(t *testing.T) {
	// Section IV/VI: the new algorithm sends less response data than the
	// old and the rebalance works without distance-dependent auxiliaries.
	conn := NewBrick(2, 2, 2, 1, [3]bool{})
	p, k := 6, 2
	run := func(algo Algo) comm.Stats {
		w := comm.NewWorld(p)
		w.Run(func(c *comm.Comm) {
			f := NewUniform(conn, c, 1)
			f.Refine(c, 6, fractalRefine(6))
			f.Partition(c, nil)
			f.Balance(c, k, BalanceOptions{Algo: algo})
		})
		return w.PhaseStats("query-response")
	}
	oldStats := run(AlgoOld)
	newStats := run(AlgoNew)
	t.Logf("query-response volume: old %d bytes, new %d bytes (%.2fx)",
		oldStats.Bytes, newStats.Bytes, float64(oldStats.Bytes)/float64(newStats.Bytes))
	if newStats.Bytes > oldStats.Bytes {
		t.Errorf("new algorithm sent more data (%d) than old (%d)", newStats.Bytes, oldStats.Bytes)
	}
}

func TestBalanceEmptyRanks(t *testing.T) {
	// More ranks than leaves: some ranks own nothing and must still
	// participate in every collective.
	conn := NewBrick(2, 1, 1, 1, [3]bool{})
	p := 9 // 4 leaves at level 1, so at least 5 empty ranks
	forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
		f.Balance(c, 2, BalanceOptions{Algo: AlgoNew})
	})
	checkGlobalComplete(t, conn, gather(conn, forests))
}

func TestBalanceWithSkewedPartition(t *testing.T) {
	// Balance must be correct even when the partition is heavily skewed
	// (no repartition after refinement): some ranks hold huge chunks,
	// others nearly nothing.
	conn := NewBrick(2, 2, 1, 1, [3]bool{})
	p, k := 5, 2
	refine := func(tree int32, o octant.Octant) bool {
		return tree == 0 && o.X == 0 && o.Y == 0 && o.Level < 6
	}
	forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 6, refine) // NOTE: no Partition call
		f.Balance(c, k, BalanceOptions{Algo: AlgoNew})
	})
	after := gather(conn, forests)
	ref := runForest(t, conn, 1, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 6, refine)
	})
	want := RefBalance(conn, gather(conn, ref), k)
	if !forestsEqual(after, want) {
		t.Fatal("balance with skewed partition != reference")
	}
}

func TestBalancePreservesGFPValidity(t *testing.T) {
	// Balance only refines, so ownership positions stay valid; OwnerOf
	// lookups must agree with actual ownership afterwards.
	conn := NewBrick(2, 3, 1, 1, [3]bool{})
	p := 4
	forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 5, fractalRefine(5))
		f.Partition(c, nil)
		f.Balance(c, 2, BalanceOptions{})
	})
	for r, f := range forests {
		for _, tc := range f.Local {
			for _, o := range tc.Leaves {
				if owner := forests[0].OwnerOf(PosOfKey(tc.Tree, o)); owner != r {
					t.Fatalf("after balance, leaf %v owned by %d but OwnerOf says %d", o, r, owner)
				}
			}
		}
	}
}

func TestBalanceKConditionsNest(t *testing.T) {
	// Stronger conditions refine at least as much: octant counts satisfy
	// |balance(k=1)| <= |balance(k=2)| (2D).
	conn := NewBrick(2, 2, 2, 1, [3]bool{})
	counts := map[int]int64{}
	for _, k := range []int{1, 2} {
		forests := runForest(t, conn, 3, 1, func(c *comm.Comm, f *Forest) {
			f.Refine(c, 5, fractalRefine(5))
			f.Partition(c, nil)
			f.Balance(c, k, BalanceOptions{})
		})
		var n int64
		for _, f := range forests {
			n += f.NumLocal()
		}
		counts[k] = n
	}
	if counts[1] > counts[2] {
		t.Fatalf("face balance produced more octants (%d) than corner balance (%d)", counts[1], counts[2])
	}
	// And a corner-balanced forest is automatically face balanced.
	forests := runForest(t, conn, 3, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 5, fractalRefine(5))
		f.Partition(c, nil)
		f.Balance(c, 2, BalanceOptions{})
	})
	if err := CheckForest(conn, gather(conn, forests), 1); err != nil {
		t.Fatalf("corner-balanced forest is not face balanced: %v", err)
	}
}

func TestBalanceStageAblations(t *testing.T) {
	// Every combination of old/new local and remote stages must produce
	// the identical balanced forest; only the costs differ.
	conn := NewBrick(2, 2, 2, 1, [3]bool{})
	var ref [][]octant.Octant
	for _, local := range []StageOverride{StageOld, StageNew} {
		for _, remote := range []StageOverride{StageOld, StageNew} {
			forests := runForest(t, conn, 4, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, 5, fractalRefine(5))
				f.Partition(c, nil)
				f.Balance(c, 2, BalanceOptions{LocalStage: local, RemoteStage: remote})
			})
			got := gather(conn, forests)
			if ref == nil {
				ref = got
				continue
			}
			if !forestsEqual(got, ref) {
				t.Fatalf("local=%d remote=%d: ablation changed the result", local, remote)
			}
		}
	}
}

func TestAlgoZeroValueIsNew(t *testing.T) {
	var opt BalanceOptions
	if opt.Algo != AlgoNew {
		t.Fatal("zero BalanceOptions must select the new algorithm")
	}
	if AlgoNew.String() != "new" || AlgoOld.String() != "old" {
		t.Fatal("Algo.String broken")
	}
}

func TestBalanceManyRanksStress(t *testing.T) {
	// 64 simulated ranks on a modest mesh: exercises empty ranks, long
	// owner chains and the Notify schedule at scale, validated by golden
	// comparison between the two algorithms.
	if testing.Short() {
		t.Skip("stress")
	}
	conn := NewBrick(2, 3, 2, 1, [3]bool{})
	var sums []uint64
	for _, algo := range []Algo{AlgoOld, AlgoNew} {
		var sum uint64
		runForest(t, conn, 64, 1, func(c *comm.Comm, f *Forest) {
			f.Refine(c, 5, fractalRefine(5))
			f.Partition(c, nil)
			f.Balance(c, 2, BalanceOptions{Algo: algo})
			s := f.Checksum(c)
			if c.Rank() == 0 {
				sum = s
			}
		})
		sums = append(sums, sum)
	}
	if sums[0] != sums[1] {
		t.Fatalf("old/new disagree at P=64: %#x vs %#x", sums[0], sums[1])
	}
}

// TestBalanceUnderChaosTransport runs the full one-pass balance — the
// query/response loop the paper builds on lossless ordered MPI — over a
// fault-injecting transport and requires the result to match the serial
// oracle octant-for-octant.  Drops, duplicates, reordering and rank stalls
// must all be absorbed by the reliable-delivery layer below Recv.
func TestBalanceUnderChaosTransport(t *testing.T) {
	conn := NewBrick(2, 3, 2, 1, [3]bool{true, false, false})
	const k = 2
	for _, p := range []int{2, 5, 8} {
		for _, scheme := range []NotifyScheme{NotifyNaive, NotifyRanges, NotifyDC} {
			// Oracle and perfect-transport baseline.
			forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, 5, fractalRefine(5))
				f.Partition(c, nil)
			})
			want := RefBalance(conn, gather(conn, forests), k)

			tr := comm.NewChaosTransport(comm.DefaultChaosConfig(uint64(31*p) + uint64(scheme)))
			w := comm.NewWorldTransport(p, tr)
			w.SetTimeout(2 * time.Minute)
			balanced := make([]*Forest, p)
			w.Run(func(c *comm.Comm) {
				f := NewUniform(conn, c, 1)
				f.Refine(c, 5, fractalRefine(5))
				f.Partition(c, nil)
				f.Balance(c, k, BalanceOptions{Notify: scheme})
				balanced[c.Rank()] = f
			})
			counts := tr.Counts()
			w.Close()
			if got := gather(conn, balanced); !forestsEqual(got, want) {
				t.Fatalf("P=%d notify=%v: balance under chaos diverged from the serial oracle", p, scheme)
			}
			if counts.Dropped == 0 && counts.Duplicated == 0 && counts.Delayed == 0 {
				t.Fatalf("P=%d notify=%v: chaos transport injected no faults (%+v) — the test is vacuous", p, scheme, counts)
			}
		}
	}
}
