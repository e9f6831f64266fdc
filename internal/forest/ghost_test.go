package forest

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/octant"
)

// bruteGhost computes rank r's exact ghost layer from the gathered global
// forest: remote leaves sharing a boundary object with one of r's leaves.
func bruteGhost(conn *Connectivity, forests []*Forest, r int) map[GhostOctant]bool {
	mine := forests[r]
	// owner lookup
	owner := func(t int32, o octant.Octant) int {
		return forests[0].OwnerOf(PosOf(t, o.FirstDescendant(octant.MaxLevel)))
	}
	want := make(map[GhostOctant]bool)
	global := gather(conn, forests)
	for _, tc := range mine.Local {
		for _, leaf := range tc.Octants() {
			for gt := int32(0); gt < conn.NumTrees(); gt++ {
				for _, g := range global[gt] {
					own := owner(gt, g)
					if own == r {
						continue
					}
					// Adjacent? Try expressing g in leaf's tree frame.
					adj := false
					if gt == tc.Tree {
						adj = octant.Adjacency(leaf, g) >= 1
					} else {
						// Use g's neighbor regions to find a common frame.
						for _, d := range octant.Directions(conn.dim, conn.dim) {
							n := g.Neighbor(d)
							ti, _, shift, ok := conn.Canonicalize(gt, n)
							if !ok || ti != tc.Tree {
								continue
							}
							gin := shift.Apply(g)
							if octant.Adjacency(leaf, gin) >= 1 {
								adj = true
								break
							}
						}
					}
					if adj {
						want[GhostOctant{Tree: gt, Oct: g, Owner: own}] = true
					}
				}
			}
		}
	}
	return want
}

func TestGhostLayerMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		conn *Connectivity
		dim  int
	}{
		{"single2d", NewBrick(2, 1, 1, 1, [3]bool{}), 2},
		{"brick2d", NewBrick(2, 3, 2, 1, [3]bool{}), 2},
		{"brick3d", NewBrick(3, 2, 2, 1, [3]bool{}), 3},
	} {
		for _, p := range []int{2, 5} {
			ghosts := make([]*GhostLayer, p)
			forests := runForest(t, tc.conn, p, 1, func(c *comm.Comm, f *Forest) {
				f.Refine(c, 3, fractalRefine(3))
				f.Partition(c, nil)
				f.Balance(c, tc.dim, BalanceOptions{})
				ghosts[c.Rank()] = f.BuildGhost(c)
			})
			for r := 0; r < p; r++ {
				want := bruteGhost(tc.conn, forests, r)
				got := make(map[GhostOctant]bool)
				for _, g := range ghosts[r].Octants {
					if got[g] {
						t.Fatalf("%s P=%d rank %d: duplicate ghost %v", tc.name, p, r, g)
					}
					got[g] = true
				}
				for g := range want {
					if !got[g] {
						t.Fatalf("%s P=%d rank %d: missing ghost %v (have %d, want %d)",
							tc.name, p, r, g, len(got), len(want))
					}
				}
				for g := range got {
					if !want[g] {
						t.Fatalf("%s P=%d rank %d: spurious ghost %v", tc.name, p, r, g)
					}
				}
			}
		}
	}
}

func TestGhostLayerBalancedLevels(t *testing.T) {
	// On a corner-balanced forest, a ghost differs by at most one level
	// from any adjacent local leaf (within the same tree frame).
	conn := NewBrick(2, 2, 2, 1, [3]bool{})
	p := 5
	ghosts := make([]*GhostLayer, p)
	forests := runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
		f.Refine(c, 5, fractalRefine(5))
		f.Partition(c, nil)
		f.Balance(c, 2, BalanceOptions{})
		ghosts[c.Rank()] = f.BuildGhost(c)
	})
	for r := 0; r < p; r++ {
		f := forests[r]
		for _, g := range ghosts[r].Octants {
			if tc := f.chunkFor(g.Tree); tc != nil {
				for _, leaf := range tc.Octants() {
					if octant.Adjacency(leaf, g.Oct) >= 1 {
						if d := int(leaf.Level) - int(g.Oct.Level); d < -1 || d > 1 {
							t.Fatalf("rank %d: ghost %v vs local %v: level gap %d", r, g.Oct, leaf, d)
						}
					}
				}
			}
		}
	}
}

func TestGhostOwnersAndSorting(t *testing.T) {
	conn := NewBrick(2, 3, 1, 1, [3]bool{})
	p := 4
	ghosts := make([]*GhostLayer, p)
	runForest(t, conn, p, 2, func(c *comm.Comm, f *Forest) {
		ghosts[c.Rank()] = f.BuildGhost(c)
	})
	for r := 0; r < p; r++ {
		g := ghosts[r]
		for i, go_ := range g.Octants {
			if go_.Owner == r {
				t.Fatalf("rank %d listed itself as ghost owner", r)
			}
			if i > 0 {
				prev := g.Octants[i-1]
				if prev.Tree > go_.Tree ||
					(prev.Tree == go_.Tree && octant.Compare(prev.Oct, go_.Oct) >= 0) {
					t.Fatalf("rank %d: ghosts not sorted at %d", r, i)
				}
			}
		}
		byOwner := g.ByOwner()
		n := 0
		for _, list := range byOwner {
			n += len(list)
		}
		if n != g.NumGhosts() {
			t.Fatalf("ByOwner lost octants: %d != %d", n, g.NumGhosts())
		}
	}
}
