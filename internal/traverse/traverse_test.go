package traverse

import (
	"slices"
	"testing"

	"repro/internal/linear"
	"repro/internal/octant"
	"repro/internal/otest"
)

// meshes returns the deterministic lattice of leaf arrays the property
// tests sweep: both dimensions, uniform-ish random octrees and highly
// graded ones, at several refinement depths.
func meshes(t *testing.T) map[string][]octant.Octant {
	t.Helper()
	out := make(map[string][]octant.Octant)
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, depth := range []int{3, 5, 7} {
			rng := otest.NewRand(int64(100*dim + depth))
			out[key("complete", dim, depth)] = otest.RandomComplete(rng, root, depth, 0.45)
			out[key("graded", dim, depth)] = gradedMesh(root, depth)
		}
	}
	return out
}

func key(kind string, dim, depth int) string {
	return kind + string(rune('0'+dim)) + "d-l" + string(rune('0'+depth))
}

// gradedMesh overlays a deep single-focus refinement on a coarse uniform
// base: a large mesh whose fine leaves concentrate in one spot, the shape
// that makes subtree pruning pay off.  (RandomGraded alone refines only the
// focus path, which yields a tiny mesh.)
func gradedMesh(root octant.Octant, depth int) []octant.Octant {
	base := uniformMesh(root, 4)
	rng := otest.NewRand(int64(depth)*977 + int64(root.Dim))
	focusPath := otest.RandomGraded(rng, root, depth+2)
	all := append(base, focusPath...)
	linear.Sort(all)
	return linear.Linearize(all)
}

// uniformMesh returns the complete uniform refinement of root to the level.
func uniformMesh(root octant.Octant, level int) []octant.Octant {
	out := []octant.Octant{root}
	for l := 0; l < level; l++ {
		var next []octant.Octant
		for _, o := range out {
			for c := 0; c < octant.NumChildren(int(o.Dim)); c++ {
				next = append(next, o.Child(c))
			}
		}
		out = next
	}
	return out
}

// TestSearchVisitsExactlyTheLeaves drives SearchKeys with a never-pruning
// callback and checks it reaches every stored leaf exactly once, in curve
// order, with correct windows.
func TestSearchVisitsExactlyTheLeaves(t *testing.T) {
	for name, leaves := range meshes(t) {
		keys := octant.AppendKeys(nil, leaves)
		root := octant.KeyOf(octant.Root(int(leaves[0].Dim)))
		var got []octant.Key
		var st Stats
		SearchKeys(root, keys, func(w octant.Key, lo, hi int, isLeaf bool) bool {
			if hi <= lo {
				t.Fatalf("%s: empty window [%d,%d) at %v", name, lo, hi, w)
			}
			dlo, dhi := linear.DescendantRangeKeys(keys, w)
			if dlo != lo || dhi != hi {
				t.Fatalf("%s: window [%d,%d) at %v, DescendantRangeKeys says [%d,%d)", name, lo, hi, w, dlo, dhi)
			}
			if isLeaf {
				if hi != lo+1 || keys[lo] != w {
					t.Fatalf("%s: bad leaf visit %v window [%d,%d)", name, w, lo, hi)
				}
				got = append(got, w)
			}
			return true
		}, &st)
		if !slices.Equal(got, keys) {
			t.Fatalf("%s: SearchKeys visited %d of %d leaves or out of order", name, len(got), len(leaves))
		}
		if st.Leaves != len(leaves) || st.Pruned != 0 {
			t.Fatalf("%s: stats %+v after full traversal of %d leaves", name, st, len(leaves))
		}
	}
}

// TestSearchBoxPruneMatchesBruteForce prunes by box intersection and checks
// the matched leaf set equals a brute-force scan, and that on graded meshes
// the traversal touches strictly fewer tree nodes than there are leaves —
// the pruning payoff the recursive formulation exists for.
func TestSearchBoxPruneMatchesBruteForce(t *testing.T) {
	for name, leaves := range meshes(t) {
		dim := int(leaves[0].Dim)
		root := octant.Root(dim)
		keys := octant.AppendKeys(nil, leaves)
		rng := otest.NewRand(int64(len(leaves)))
		for trial := 0; trial < 8; trial++ {
			region := otest.RandomOctant(rng, dim, 1, 6)
			box := InsulationBox(region)

			var want []octant.Octant
			for _, o := range leaves {
				if box.IntersectsOctant(o) {
					want = append(want, o)
				}
			}

			var got []octant.Octant
			var st Stats
			SearchKeys(octant.KeyOf(root), keys, func(w octant.Key, lo, hi int, isLeaf bool) bool {
				wo := w.Octant()
				if !box.IntersectsOctant(wo) {
					return false
				}
				if isLeaf {
					got = append(got, wo)
				}
				return true
			}, &st)

			if !otest.Equal(got, want) {
				t.Fatalf("%s trial %d: box of %v matched %d leaves, brute force %d",
					name, trial, region, len(got), len(want))
			}
			// The pruning payoff holds when the query is local (a region
			// covering most of the mesh legitimately prunes nothing).
			if name[:6] == "graded" && len(leaves) > 100 && 8*len(want) < len(leaves) {
				if st.Visited() >= len(leaves) {
					t.Fatalf("%s trial %d: traversal visited %d nodes for %d leaves — no pruning",
						name, trial, st.Visited(), len(leaves))
				}
			}
		}
	}
}

// TestSearchBoundaryMatchesBruteForce checks the simultaneous traversal
// reports exactly the brute-force (leaf, box) intersection pairs, in curve
// order with ascending box order per leaf.  That every brute-force pair is
// reported already implies no pruned subtree held a matching leaf, so the
// prune decisions need no separate observation.
func TestSearchBoundaryMatchesBruteForce(t *testing.T) {
	for name, leaves := range meshes(t) {
		dim := int(leaves[0].Dim)
		root := octant.KeyOf(octant.Root(dim))
		keys := octant.AppendKeys(nil, leaves)
		rng := otest.NewRand(int64(7 * len(leaves)))
		for trial := 0; trial < 6; trial++ {
			nq := 1 + rng.Intn(9)
			boxes := make([]Box, nq)
			for i := range boxes {
				boxes[i] = InsulationBox(otest.RandomOctant(rng, dim, 1, 7))
			}

			type pair struct{ li, qi int }
			var want []pair
			for li, o := range leaves {
				for qi, b := range boxes {
					if b.IntersectsOctant(o) {
						want = append(want, pair{li, qi})
					}
				}
			}

			var got []pair
			SearchBoundaryKeys(root, keys, boxes, func(li, qi int) {
				got = append(got, pair{li, qi})
			}, nil)

			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d matches, brute force %d", name, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: match %d is %+v, want %+v", name, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchBoundaryPrunesGradedMeshes pins the acceptance property: on a
// graded mesh queried near its refinement focus, the node-visit count stays
// strictly below the leaf count.
func TestSearchBoundaryPrunesGradedMeshes(t *testing.T) {
	for _, dim := range []int{2, 3} {
		leaves := gradedMesh(octant.Root(dim), 9)
		if len(leaves) < 200 {
			t.Fatalf("%dD graded mesh unexpectedly small: %d leaves", dim, len(leaves))
		}
		// Query the insulation neighborhood of the deepest leaf (the
		// refinement focus): most of the coarse mesh is far from it.
		deepest := leaves[0]
		for _, o := range leaves {
			if o.Level > deepest.Level {
				deepest = o
			}
		}
		boxes := []Box{InsulationBox(deepest)}
		var st Stats
		SearchBoundaryKeys(octant.KeyOf(octant.Root(dim)), octant.AppendKeys(nil, leaves), boxes, func(li, qi int) {}, &st)
		if st.Visited() >= len(leaves) {
			t.Fatalf("%dD: visited %d nodes of a %d-leaf graded mesh — traversal did not prune",
				dim, st.Visited(), len(leaves))
		}
		if st.Pruned == 0 {
			t.Fatalf("%dD: no subtree pruned on a graded mesh", dim)
		}
	}
}

// TestBoxOctantGeometry cross-checks the box-cube intersection against the
// octant package's own overlap and insulation-layer predicates on random
// aligned cube pairs, including out-of-root neighbors.
func TestBoxOctantGeometry(t *testing.T) {
	for _, dim := range []int{2, 3} {
		rng := otest.NewRand(int64(dim))
		for trial := 0; trial < 2000; trial++ {
			a := otest.RandomOctant(rng, dim, 0, 8)
			b := otest.RandomOctant(rng, dim, 0, 8)
			if trial%3 == 0 {
				// Shove b out of root occasionally: neighbor regions of
				// boundary octants are the traversal's bread and butter.
				dirs := octant.Directions(dim, dim)
				b = b.Neighbor(dirs[rng.Intn(len(dirs))])
			}
			if got, want := OctantBox(a).IntersectsOctant(b), a.Overlaps(b); got != want {
				t.Fatalf("%dD: OctantBox(%v).IntersectsOctant(%v) = %v, Overlaps = %v",
					dim, a, b, got, want)
			}
			wantIns := false
			for _, cell := range a.InsulationLayer() {
				if cell.Overlaps(b) {
					wantIns = true
					break
				}
			}
			if got := InsulationBox(a).IntersectsOctant(b); got != wantIns {
				t.Fatalf("%dD: InsulationBox(%v).IntersectsOctant(%v) = %v, cell overlap = %v",
					dim, a, b, got, wantIns)
			}
		}
	}
}

// TestSplitTasksPartition checks the task frontier partitions the leaf
// window in curve order, each task root covers exactly its window, and a
// per-task traversal reproduces the global match set.
func TestSplitTasksPartition(t *testing.T) {
	for name, leaves := range meshes(t) {
		root := octant.KeyOf(octant.Root(int(leaves[0].Dim)))
		keys := octant.AppendKeys(nil, leaves)
		for _, maxTasks := range []int{0, 1, 2, 3, 7, 16, len(leaves) + 5} {
			tasks := SplitTasksKeys(root, keys, maxTasks)
			if len(tasks) == 0 {
				t.Fatalf("%s: no tasks for %d leaves", name, len(leaves))
			}
			if maxTasks < 2 && len(tasks) != 1 {
				t.Fatalf("%s: maxTasks=%d produced %d tasks", name, maxTasks, len(tasks))
			}
			pos := 0
			for _, tk := range tasks {
				if tk.Lo != pos {
					t.Fatalf("%s maxTasks=%d: task window starts at %d, want %d", name, maxTasks, tk.Lo, pos)
				}
				if tk.Hi <= tk.Lo {
					t.Fatalf("%s maxTasks=%d: empty task window [%d,%d)", name, maxTasks, tk.Lo, tk.Hi)
				}
				lo, hi := linear.DescendantRangeKeys(keys, tk.Root)
				if lo != tk.Lo || hi != tk.Hi {
					t.Fatalf("%s maxTasks=%d: task root %v covers [%d,%d), window is [%d,%d)",
						name, maxTasks, tk.Root, lo, hi, tk.Lo, tk.Hi)
				}
				pos = tk.Hi
			}
			if pos != len(leaves) {
				t.Fatalf("%s maxTasks=%d: tasks cover %d of %d leaves", name, maxTasks, pos, len(leaves))
			}

			// Fanning a boundary search over the tasks must reproduce the
			// serial match sequence once windows are rebased.
			box := InsulationBox(leaves[len(leaves)/2])
			var serial []int
			SearchBoundaryKeys(root, keys, []Box{box}, func(li, qi int) {
				serial = append(serial, li)
			}, nil)
			var fanned []int
			for _, tk := range tasks {
				SearchBoundaryKeys(tk.Root, keys[tk.Lo:tk.Hi], []Box{box}, func(li, qi int) {
					fanned = append(fanned, tk.Lo+li)
				}, nil)
			}
			if len(serial) != len(fanned) {
				t.Fatalf("%s maxTasks=%d: fanned traversal matched %d leaves, serial %d",
					name, maxTasks, len(fanned), len(serial))
			}
			for i := range serial {
				if serial[i] != fanned[i] {
					t.Fatalf("%s maxTasks=%d: fanned match %d is leaf %d, serial %d",
						name, maxTasks, i, fanned[i], serial[i])
				}
			}
		}
	}
}
