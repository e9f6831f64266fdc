package forest

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/obs"
	"repro/internal/octant"
	"repro/internal/otest"
)

// coordQuery is a query the way the map-based exchange keyed it: by
// destination, tree and the coordinate tuple of its octant.
type coordQuery struct {
	dest, tree int32
	r          octant.Octant
}

// randomQueryOctant returns an octant in or around the root: a random in-root
// octant moved by up to one root length per axis, i.e. a query octant as seen
// from a neighboring tree's frame.
func randomQueryOctant(rng *rand.Rand, dim int) octant.Octant {
	o := otest.RandomOctant(rng, dim, 0, 6)
	var step [3]int32
	for i := 0; i < dim; i++ {
		step[i] = int32(rng.Intn(3)-1) * octant.RootLen
	}
	return o.Translated(step[0], step[1], step[2])
}

// TestQuerySetMatchesCoordinateDedup checks that ordering queries by (dest,
// tree, packed key) and dropping adjacent repeats finds exactly the set the
// coordinate-tuple map found — nothing lost, nothing kept twice — for query
// octants inside and outside the root, that the order is strict and total,
// and that destination and provenance stay attached to their query.
func TestQuerySetMatchesCoordinateDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 50; trial++ {
			pool := make([]coordQuery, 40)
			for i := range pool {
				pool[i] = coordQuery{dest: int32(rng.Intn(3)), tree: int32(rng.Intn(3)), r: randomQueryOctant(rng, dim)}
			}
			want := make(map[coordQuery]bool)
			var issued []issuedQuery
			for i := 0; i < 150; i++ {
				cq := pool[rng.Intn(len(pool))]
				want[cq] = true
				issued = append(issued, issuedQuery{
					dest: cq.dest,
					q:    query{tree: cq.tree, r: octant.KeyOf(cq.r)},
					org:  origin{tree: cq.tree + 100*cq.dest, shift: Shift{cq.r.X, cq.r.Y, cq.r.Z}},
				})
			}
			set := newQuerySet(issued)
			if len(set.qs) != len(want) || len(set.dest) != len(want) || len(set.org) != len(want) {
				t.Fatalf("dim %d: %d queries (%d dests, %d origins) for %d distinct coordinate tuples",
					dim, len(set.qs), len(set.dest), len(set.org), len(want))
			}
			for i, q := range set.qs {
				cq := coordQuery{dest: set.dest[i], tree: q.tree, r: q.r.Octant()}
				if !want[cq] {
					t.Fatalf("dim %d: query %+v was never issued", dim, cq)
				}
				if (set.org[i] != origin{tree: cq.tree + 100*cq.dest, shift: Shift{cq.r.X, cq.r.Y, cq.r.Z}}) {
					t.Fatalf("dim %d: query %+v carries the provenance %+v of another", dim, cq, set.org[i])
				}
				if i == 0 {
					continue
				}
				if set.dest[i] < set.dest[i-1] || (set.dest[i] == set.dest[i-1] && compareQueries(set.qs[i-1], q) >= 0) {
					t.Fatalf("dim %d: queries %d and %d out of (dest, tree, key) order", dim, i-1, i)
				}
			}
			for _, a := range set.qs {
				for _, b := range set.qs {
					ab := compareQueries(a, b)
					if ab != -compareQueries(b, a) || (ab == 0) != (a == b) {
						t.Fatalf("dim %d: compareQueries is not a strict total order on %+v, %+v", dim, a, b)
					}
					if a.tree == b.tree && ab != cmp.Compare(octant.Compare(a.r.Octant(), b.r.Octant()), 0) {
						t.Fatalf("dim %d: key order disagrees with the Morton order of %v and %v", dim, a.r, b.r)
					}
				}
			}
			for rank := 0; rank < 4; rank++ {
				lo, hi := set.run(rank)
				for i := range set.dest {
					if (int(set.dest[i]) == rank) != (lo <= i && i < hi) {
						t.Fatalf("dim %d: run(%d) = [%d, %d) misplaces query %d for rank %d", dim, rank, lo, hi, i, set.dest[i])
					}
				}
			}
		}
	}
}

// selfPeriodicBrick returns a 3D brick whose y axis is one tree wide and
// periodic, so every tree is its own neighbour across both y faces.
// NewBrick refuses such an axis; the brick is built directly so the query
// build's skip of a rank's own tree is checked where an exit group leads
// back into it.
func selfPeriodicBrick() *Connectivity {
	c := &Connectivity{dim: 3, n: [3]int{2, 1, 2}, periodic: [3]bool{false, true, false}}
	c.buildIndex(nil)
	return c
}

// edgeRefine refines every octant that touches at least two root faces, so
// the finest leaves line the tree edges and corners, where a leaf's
// insulation cells fall into the most exit groups.
func edgeRefine(maxLevel int) func(tree int32, o octant.Octant) bool {
	return func(tree int32, o octant.Octant) bool {
		if int(o.Level) >= maxLevel {
			return false
		}
		faces := 0
		for a := 0; a < int(o.Dim); a++ {
			if c := o.Coord(a); c == 0 || c+o.Len() == octant.RootLen {
				faces++
			}
		}
		return faces >= 2
	}
}

// TestBuildQueriesMatchesClassical compares the query build — insulation
// cells resolved per exit group, per cell only where a group straddles a
// partition boundary — against the classical enumeration: every insulation
// cell canonicalized on coordinates and every owner of its region asked.
// The topologies include re-entrant edges of a masked brick, a tree that is
// its own periodic neighbour, and leaves packed into tree edges and corners.
func TestBuildQueriesMatchesClassical(t *testing.T) {
	reentrant := func(x, y, z int) bool {
		return !(x == 1 && y == 0 && z == 0) && !(x == 1 && y == 0 && z == 1) && !(x == 1 && y == 1 && z == 1)
	}
	topos := []struct {
		name   string
		conn   *Connectivity
		refine func(tree int32, o octant.Octant) bool
	}{
		{"brick2d", NewBrick(2, 3, 2, 1, [3]bool{}), fractalRefine(4)},
		{"periodic2d", NewBrick(2, 4, 3, 1, [3]bool{true, false, false}), fractalRefine(4)},
		{"masked2d", NewMaskedBrick(2, 3, 3, 1, [3]bool{}, func(x, y, z int) bool { return x != 1 || y != 1 }), fractalRefine(4)},
		{"brick3d", NewBrick(3, 2, 2, 1, [3]bool{}), fractalRefine(4)},
		{"masked3d", NewMaskedBrick(3, 3, 3, 2, [3]bool{}, reentrant), fractalRefine(3)},
		{"selfperiodic3d", selfPeriodicBrick(), fractalRefine(4)},
		{"edges3d", NewBrick(3, 2, 2, 2, [3]bool{}), edgeRefine(5)},
	}
	var cells atomic.Int64
	for _, topo := range topos {
		dirs := octant.Directions(topo.conn.dim, topo.conn.dim)
		for _, p := range []int{1, 4, 13} {
			runForest(t, topo.conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, 5, topo.refine)
				f.Partition(c, nil)
				me := c.Rank()
				want := make(map[coordQuery]origin)
				for ci := range f.Local {
					tc := &f.Local[ci]
					for _, r := range tc.Octants() {
						for _, d := range dirs {
							ti, ins, shift, ok := f.Conn.Canonicalize(tc.Tree, r.Neighbor(d))
							if !ok {
								continue
							}
							first, last := f.OwnersOfRegion(ti, ins)
							for rank := first; rank <= last; rank++ {
								if rank == me && ti == tc.Tree {
									continue
								}
								want[coordQuery{dest: int32(rank), tree: ti, r: shift.Apply(r)}] = origin{tree: tc.Tree, shift: shift}
							}
						}
					}
				}
				scan := f.scanBoundary(me, false, 1, serialPar)
				set := newQuerySet(scan.issued)
				cells.Add(int64(scan.cells))
				if leaves := scan.st.Leaves; scan.groups > leaves<<f.Conn.dim {
					t.Errorf("%s P=%d rank %d: %d groups for %d boundary leaves, more than 2^d each", topo.name, p, me, scan.groups, leaves)
				}
				if len(set.qs) != len(want) {
					t.Errorf("%s P=%d rank %d: %d queries, classical enumeration has %d", topo.name, p, me, len(set.qs), len(want))
					return
				}
				for i, q := range set.qs {
					org, ok := want[coordQuery{dest: set.dest[i], tree: q.tree, r: q.r.Octant()}]
					if !ok || org != set.org[i] {
						t.Errorf("%s P=%d rank %d: query %v to rank %d tree %d (origin %+v) not in the classical set (origin %+v, present %v)",
							topo.name, p, me, q.r, set.dest[i], q.tree, set.org[i], org, ok)
						return
					}
				}
				var peers []int
				for rank := 0; rank < p; rank++ {
					if lo, hi := set.run(rank); rank != me && lo < hi {
						peers = append(peers, rank)
					}
				}
				if !slices.Equal(set.peers(me), peers) {
					t.Errorf("%s P=%d rank %d: peers %v, want %v", topo.name, p, me, set.peers(me), peers)
				}
			})
		}
	}
	if cells.Load() == 0 {
		t.Error("no group straddled a partition boundary: the per-cell fallback went untested")
	}
}

// TestRegroupHitsMatchesSort checks the counting-sort regroup against a
// comparison sort on (query, leaf) for hit lists in traversal order —
// ascending leaf index, several queries per leaf — cut at random points
// into the per-task lists the regroup reads in place.
func TestRegroupHitsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		nq := 1 + rng.Intn(40)
		var hits []respHit
		for li, leaves := 0, rng.Intn(300); li < leaves; li++ {
			for qi := 0; qi < nq; qi++ {
				if rng.Intn(8) == 0 {
					hits = append(hits, respHit{qi: int32(qi), li: int32(li)})
				}
			}
		}
		sorted := slices.Clone(hits)
		slices.SortFunc(sorted, func(a, b respHit) int {
			if a.qi != b.qi {
				return int(a.qi) - int(b.qi)
			}
			return int(a.li) - int(b.li)
		})
		var lists [][]respHit
		for rest := hits; ; {
			n := rng.Intn(len(rest) + 1)
			lists = append(lists, rest[:n])
			if rest = rest[n:]; len(rest) == 0 {
				break
			}
		}
		lis, off := regroupHits(lists, nq)
		if len(off) != nq+1 || off[0] != 0 || int(off[nq]) != len(hits) || len(lis) != len(hits) {
			t.Fatalf("trial %d: %d hits regrouped into %d indices with offsets %v", trial, len(hits), len(lis), off)
		}
		for qi := 0; qi < nq; qi++ {
			for i := off[qi]; i < off[qi+1]; i++ {
				if (sorted[i] != respHit{qi: int32(qi), li: lis[i]}) {
					t.Fatalf("trial %d: slot %d holds leaf %d of query %d, the sort has %+v", trial, i, lis[i], qi, sorted[i])
				}
			}
		}
	}
}

// TestRespondQueriesWorkerInvariant checks the responder returns the same
// responses, slot for slot, serially and over worker pools, under both
// algorithms — and that the family skip of the new one actually engages.
func TestRespondQueriesWorkerInvariant(t *testing.T) {
	conn := NewBrick(3, 2, 2, 1, [3]bool{})
	runForest(t, conn, 1, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 5, fractalRefine(5))
		set := newQuerySet(f.scanBoundary(0, false, 1, serialPar).issued)
		if len(set.qs) == 0 {
			t.Fatal("no self queries on a four-tree forest")
		}
		for _, algo := range []Algo{AlgoNew, AlgoOld} {
			var serial respondStats
			want := f.respondQueries(set.qs, 3, algo, 1, serialPar, &serial)
			if serial.hits == 0 || serial.families > serial.hits || (algo == AlgoNew) != (serial.families < serial.hits) {
				t.Errorf("algo %v: %d hits, %d families", algo, serial.hits, serial.families)
			}
			for _, workers := range []int{0, 3, runtime.NumCPU()} {
				n := (&Forest{Workers: workers}).workerCount(c.LocalRanks())
				var st respondStats
				got := f.respondQueries(set.qs, 3, algo, n, func(k int, task func(int)) { parallelFor(n, k, task) }, &st)
				if st.hits != serial.hits || st.families != serial.families {
					t.Errorf("algo %v workers %d: %d hits / %d families, serial %d / %d",
						algo, workers, st.hits, st.families, serial.hits, serial.families)
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("algo %v workers %d: response %d differs from the serial one", algo, workers, i)
					}
					if !linear.IsSortedKeys(got[i]) {
						t.Fatalf("algo %v workers %d: response %d not in curve order", algo, workers, i)
					}
				}
			}
		}
	})
}

// TestRespondQueriesParallelBytes bounds what the worker pool costs the
// responder in memory: on a four-tree forest of level-5 canned fractals
// answering its own cross-tree queries, respondQueries at 4 workers
// allocates at most 1.1 times the serial bytes per call.  The forest is
// hand-built, so no communicator is involved.
func TestRespondQueriesParallelBytes(t *testing.T) {
	conn := NewBrick(3, 2, 2, 1, [3]bool{})
	leaves := octant.AppendKeys(nil, otest.CannedLeaves(t, 3, 5))
	f := &Forest{Conn: conn, GFP: []Pos{PosOfKey(0, leaves[0]), {Tree: conn.NumTrees()}}}
	for tree := int32(0); tree < conn.NumTrees(); tree++ {
		f.Local = append(f.Local, TreeChunk{Tree: tree, Leaves: leaves})
		f.NumGlobal += int64(len(leaves))
	}
	set := newQuerySet(f.scanBoundary(0, false, 1, serialPar).issued)
	if len(set.qs) == 0 {
		t.Fatal("no self queries on the four-tree canned forest")
	}
	bytes := func(workers int) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var st respondStats
				f.respondQueries(set.qs, 3, AlgoNew, workers, func(n int, task func(int)) { parallelFor(workers, n, task) }, &st)
				if st.hits == 0 {
					b.Fatal("the canned queries hit no leaves")
				}
			}
		}).AllocedBytesPerOp()
	}
	serial, par := bytes(1), bytes(4)
	if serial == 0 || float64(par) > 1.1*float64(serial) {
		t.Errorf("respondQueries: %d B/op at 4 workers, %d B/op serially; want at most 1.1x", par, serial)
	}
}

// TestSpliceReplaceKeysNonLeafFallback drives the splice merge with a job
// whose octant is not a current leaf (its children are): the in-place
// replacement cannot place it, and the sort-and-linearize fallback must
// still produce the finest cover.
func TestSpliceReplaceKeysNonLeafFallback(t *testing.T) {
	root := octant.KeyOf(octant.Root(2))
	var leaves []octant.Key
	for i := 0; i < 4; i++ {
		if i == 1 {
			for j := 0; j < 4; j++ {
				leaves = append(leaves, root.Child(1).Child(j))
			}
			continue
		}
		leaves = append(leaves, root.Child(i))
	}
	split := func(k octant.Key) []octant.Key {
		return []octant.Key{k.Child(0), k.Child(1), k.Child(2), k.Child(3)}
	}
	jobs := []rebalanceJob{
		{rk: root.Child(0), sub: split(root.Child(0))}, // a leaf: replaced in place
		{rk: root.Child(1), sub: split(root.Child(1))}, // not a leaf: already refined
		{rk: root.Child(2)},                            // a leaf that need not split
	}
	got := spliceReplaceKeys(slices.Clone(leaves), jobs)
	want := append(split(root.Child(0)), split(root.Child(1))...)
	want = append(want, root.Child(2), root.Child(3))
	if !slices.Equal(got, want) {
		t.Fatalf("fallback merge produced %v, want %v", got, want)
	}
	// With only leaf jobs the in-place path must agree with the same merge.
	if got := spliceReplaceKeys(slices.Clone(leaves), jobs[:1]); !slices.Equal(got, append(split(root.Child(0)), leaves[1:]...)) {
		t.Fatalf("in-place splice produced %v", got)
	}
}

// TestBalanceChildSpans pins the observability contract of phases 2-5: each
// step is a child span directly under its phase span on every rank, the
// funnel counters are recorded, and PhaseTimes still reports the phase
// spans themselves (query-build folded into QueryResponse).
func TestBalanceChildSpans(t *testing.T) {
	conn := NewBrick(3, 2, 1, 1, [3]bool{})
	const p = 2
	tracer := obs.NewTracer(p)
	w := comm.NewWorld(p)
	w.SetTracer(tracer)
	times := make([]PhaseTimes, p)
	w.Run(func(c *comm.Comm) {
		f := NewUniform(conn, c, 1)
		f.Refine(c, 4, fractalRefine(4))
		f.Partition(c, nil)
		times[c.Rank()] = f.Balance(c, 3, BalanceOptions{})
	})
	w.Close()
	parentOf := map[string]string{
		obs.SpanQueryBuild:       "query",
		obs.SpanQRSend:           "query-response",
		obs.SpanQRRespondRemote:  "query-response",
		obs.SpanQRRespondSelf:    "query-response",
		obs.SpanQRRecvWait:       "query-response",
		obs.SpanRebalanceGroup:   "rebalance",
		obs.SpanRebalanceSubtree: "rebalance",
		obs.SpanRebalanceSplice:  "rebalance",
	}
	for r := 0; r < p; r++ {
		seen := make(map[string]bool)
		var phase obs.SpanRecord
		for _, s := range tracer.Spans(r) {
			if s.Depth == 0 {
				phase = s
			}
			want, ok := parentOf[s.Name]
			if !ok {
				continue
			}
			seen[s.Name] = true
			if s.Depth != 1 || phase.Name != want || s.Start < phase.Start || s.End > phase.End {
				t.Errorf("rank %d: span %s at depth %d inside %s, want directly under %s", r, s.Name, s.Depth, phase.Name, want)
			}
		}
		for name := range parentOf {
			if !seen[name] {
				t.Errorf("rank %d: no %s span", r, name)
			}
		}
		d := tracer.PhaseDurations(r)
		if got := d["query"] + d["query-response"]; times[r].QueryResponse != got {
			t.Errorf("rank %d: PhaseTimes.QueryResponse %v, phase spans sum to %v", r, times[r].QueryResponse, got)
		}
		if times[r].Rebalance != d["rebalance"] || times[r].LocalBalance != d["local-balance"] || times[r].Notify != d["notify"] {
			t.Errorf("rank %d: PhaseTimes %+v is not the view over the phase spans %v", r, times[r], d)
		}
	}
	queries := tracer.TotalCounter(obs.CounterBalanceQueries)
	hits := tracer.TotalCounter(obs.CounterRespondHits)
	families := tracer.TotalCounter(obs.CounterRespondFamilies)
	if queries == 0 || hits == 0 || families == 0 || families >= hits {
		t.Errorf("funnel counters: %d queries, %d hits, %d families", queries, hits, families)
	}
	// Every boundary leaf lies below the root, so it resolves at most 2^d
	// groups — against the 3^d − 1 cells of the per-cell enumeration.
	leaves := tracer.TotalCounter("balance/query-leaves")
	groups := tracer.TotalCounter(obs.CounterQueryGroups)
	cells := tracer.TotalCounter(obs.CounterQueryCells)
	if leaves == 0 || groups == 0 || groups > leaves<<conn.Dim() || cells > 26*leaves {
		t.Errorf("query-build counters: %d boundary leaves, %d groups, %d fallback cells", leaves, groups, cells)
	}
}
