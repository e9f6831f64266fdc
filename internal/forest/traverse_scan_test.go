package forest

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/octant"
)

// bruteGhostSends reproduces the classical per-leaf × per-direction ghost
// send enumeration (the pre-traversal BuildGhost loop) as an oracle for the
// boundary scan's ghost consumer (ghostScan).
func bruteGhostSends(f *Forest, me int) []GhostSend {
	dirs := octant.Directions(f.Conn.dim, f.Conn.dim)
	set := make(map[GhostSend]bool)
	for _, tc := range f.Local {
		for _, o := range tc.Octants() {
			for _, d := range dirs {
				n := o.Neighbor(d)
				ti, n2, _, ok := f.Conn.Canonicalize(tc.Tree, n)
				if !ok {
					continue
				}
				first, last := f.OwnersOfRegion(ti, n2)
				for rank := first; rank <= last; rank++ {
					if rank == me {
						continue
					}
					set[GhostSend{Rank: rank, Tree: tc.Tree, Oct: o}] = true
				}
			}
		}
	}
	out := make([]GhostSend, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.SortFunc(out, compareGhostSends)
	return out
}

func serialPar(n int, task func(int)) {
	for i := 0; i < n; i++ {
		task(i)
	}
}

// TestGhostScanMatchesBruteScan checks the boundary scan under the ghost
// filter emits exactly the classical per-leaf send schedule across
// topologies (including periodic and masked bricks), world sizes and worker
// counts (the default pool, serial and 3), and that at P=1 the serial
// traversal prunes every leaf (nothing can be remote; a pool may cut a task
// down to a single leaf, which is visited).
func TestGhostScanMatchesBruteScan(t *testing.T) {
	topos := []struct {
		name string
		conn *Connectivity
	}{
		{"single2d", NewBrick(2, 1, 1, 1, [3]bool{})},
		{"brick2d", NewBrick(2, 3, 2, 1, [3]bool{})},
		{"periodic2d", NewBrick(2, 4, 3, 1, [3]bool{true, false, false})},
		{"masked2d", NewMaskedBrick(2, 3, 3, 1, [3]bool{}, func(x, y, z int) bool { return x != 1 || y != 1 })},
		{"periodic3d", NewBrick(3, 2, 3, 2, [3]bool{false, true, false})},
	}
	for _, topo := range topos {
		depth := 3
		if topo.conn.dim == 3 {
			depth = 2
		}
		for _, p := range []int{1, 3, 5} {
			runForest(t, topo.conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, depth, fractalRefine(depth))
				f.Partition(c, nil)
				me := c.Rank()
				want := bruteGhostSends(f, me)
				for _, workers := range []int{0, 1, 3} {
					f.Workers = workers
					got, st, _ := f.ghostScan(me, f.workerCount(c.LocalRanks()))
					if len(got) != len(want) {
						t.Errorf("%s P=%d rank %d workers %d: %d sends, brute force %d",
							topo.name, p, me, workers, len(got), len(want))
						return
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s P=%d rank %d workers %d: send %d is %+v, want %+v",
								topo.name, p, me, workers, i, got[i], want[i])
							return
						}
					}
					if p == 1 && workers == 1 && st.Leaves != 0 {
						t.Errorf("%s P=1: traversal visited %d leaves; everything is rank-local and should prune",
							topo.name, st.Leaves)
					}
				}
			})
		}
	}
}

// TestQueryBoundaryLeavesComplete checks that every leaf that generates a
// balance query (by the classical enumeration) issues one in the boundary
// scan under the query filter — no subtree holding such a leaf is pruned —
// and that the scan lists the issuing leaves chunk by chunk in curve order.
func TestQueryBoundaryLeavesComplete(t *testing.T) {
	topos := []struct {
		name string
		conn *Connectivity
	}{
		{"brick2d", NewBrick(2, 3, 2, 1, [3]bool{})},
		{"periodic2d", NewBrick(2, 4, 3, 1, [3]bool{true, false, false})},
		{"masked2d", NewMaskedBrick(2, 3, 3, 1, [3]bool{}, func(x, y, z int) bool { return x != 1 || y != 1 })},
	}
	for _, topo := range topos {
		dirs := octant.Directions(topo.conn.dim, topo.conn.dim)
		for _, p := range []int{1, 4} {
			runForest(t, topo.conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, 3, fractalRefine(3))
				f.Partition(c, nil)
				me := c.Rank()
				type leafRef struct {
					tree int32
					leaf octant.Key
				}
				listed := make(map[leafRef]bool)
				var prev leafRef
				for i, iq := range f.scanBoundary(me, false, 1, serialPar).issued {
					cur := leafRef{iq.org.tree, iq.org.shift.Inverse().applyKey(iq.q.r)}
					if i > 0 && (cur.tree < prev.tree || (cur.tree == prev.tree && octant.KeyLess(cur.leaf, prev.leaf))) {
						t.Errorf("%s P=%d rank %d: leaf %v of tree %d issues after leaf %v of tree %d",
							topo.name, p, me, cur.leaf.Octant(), cur.tree, prev.leaf.Octant(), prev.tree)
						return
					}
					prev = cur
					listed[cur] = true
				}
				for ci := range f.Local {
					tc := &f.Local[ci]
					for _, r := range tc.Octants() {
						generates := false
						for _, d := range dirs {
							ins := r.Neighbor(d)
							ti, ins2, _, ok := f.Conn.Canonicalize(tc.Tree, ins)
							if !ok {
								continue
							}
							first, last := f.OwnersOfRegion(ti, ins2)
							for rank := first; rank <= last; rank++ {
								if rank == me {
									if ti != tc.Tree {
										generates = true
									}
									continue
								}
								generates = true
							}
						}
						if generates && !listed[leafRef{tc.Tree, octant.KeyOf(r)}] {
							t.Errorf("%s P=%d rank %d tree %d: leaf %v generates a query but was pruned",
								topo.name, p, me, tc.Tree, r)
							return
						}
					}
				}
			})
		}
	}
}

// TestBoundaryScanCounters pins the work counters of the boundary scan on a
// canned three-tree forest whose partition at P = 2 cuts the middle tree,
// so groups straddle it.  The traversal, query and ghost-traversal counts
// are those of the separate query and ghost scans this engine replaced;
// ghost/groups and ghost/cells record the group work of the ghost consumer,
// against 352 × 26 = 9 152 cells per rank resolved one by one before.  At
// P = 1 the ghost scan prunes everything and resolves no cell.
func TestBoundaryScanCounters(t *testing.T) {
	conn := NewBrick(3, 3, 1, 1, [3]bool{})
	counters := func(p int) *obs.Tracer {
		tracer := obs.NewTracer(p)
		w := comm.NewWorld(p)
		w.SetTracer(tracer)
		w.Run(func(c *comm.Comm) {
			f := NewUniform(conn, c, 1)
			f.Workers = 1
			f.Refine(c, 4, fractalRefine(4))
			f.Partition(c, nil)
			f.Balance(c, 3, BalanceOptions{})
			f.BuildGhost(c)
		})
		w.Close()
		return tracer
	}
	want := map[string]int64{
		"balance/query-nodes":     112,
		"balance/query-leaves":    414,
		"balance/query-pruned":    46,
		obs.CounterQueryGroups:    572,
		obs.CounterQueryCells:     2006,
		obs.CounterBalanceQueries: 258,
		"ghost/nodes":             110,
		"ghost/leaves":            352,
		"ghost/pruned":            52,
		obs.CounterGhostGroups:    476,
		obs.CounterGhostCells:     2126,
	}
	tr := counters(2)
	for r := 0; r < 2; r++ {
		for name, v := range want {
			if got := tr.Counter(r, name); got != v {
				t.Errorf("P=2 rank %d: %s = %d, want %d", r, name, got, v)
			}
		}
	}
	tr = counters(1)
	if g, c := tr.Counter(0, obs.CounterGhostGroups), tr.Counter(0, obs.CounterGhostCells); g != 0 || c != 0 {
		t.Errorf("P=1: %s = %d, %s = %d, want 0 and 0", obs.CounterGhostGroups, g, obs.CounterGhostCells, c)
	}
}
