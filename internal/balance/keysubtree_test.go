package balance

import (
	"math/rand"
	"testing"

	"repro/internal/linear"
	"repro/internal/octant"
	"repro/internal/otest"
)

// checkKeysMatch pins the packed-key subtree balance bit-for-bit against
// the struct path on the same input.
func checkKeysMatch(t *testing.T, root octant.Octant, in []octant.Octant, k int) {
	t.Helper()
	want := SubtreeNew(root, in, k)
	got := SubtreeNewKeys(octant.KeyOf(root), octant.AppendKeys(nil, in), k)
	if len(got) != len(want) {
		t.Fatalf("dim %d k %d: SubtreeNewKeys %d leaves, SubtreeNew %d",
			root.Dim, k, len(got), len(want))
	}
	for i := range got {
		if o := got[i].Octant(); o != want[i] {
			t.Fatalf("dim %d k %d: leaf %d: key path %v != struct path %v",
				root.Dim, k, i, o, want[i])
		}
	}
}

func TestSubtreeNewKeysMatchesStruct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for _, k := range kRange(dim) {
			for trial := 0; trial < 15; trial++ {
				checkKeysMatch(t, root, otest.RandomComplete(rng, root, 5, 0.6), k)
			}
			for trial := 0; trial < 10; trial++ {
				complete := otest.RandomComplete(rng, root, 5, 0.6)
				checkKeysMatch(t, root, otest.RandomSubset(rng, complete, 0.2), k)
			}
		}
	}
}

func TestSubtreeNewKeysNonRootSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dim := range []int{2, 3} {
		for _, k := range kRange(dim) {
			sub := octant.Root(dim).Child(3).Child(1)
			checkKeysMatch(t, sub, otest.RandomGraded(rng, sub, 8), k)
		}
	}
}

func TestSubtreeNewKeysTrivialInputs(t *testing.T) {
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		checkKeysMatch(t, root, nil, dim)
		checkKeysMatch(t, root, []octant.Octant{root}, dim)
	}
}

// TestOutwardFamiliesMatchCoarseNeighborhood is the licence of the closure
// loop in SubtreeNewKeys.  For o with p = parent(o) and g = parent(p), the
// 0-siblings of the same-size neighbors of p (what the struct path derives
// from CoarseNeighborhood, one per direction) are, as a set, the 0-children
// of g and of g's outward neighbors; both loops keep the same ones inside
// root, and o precludes exactly the member that comes from g itself.
func TestOutwardFamiliesMatchCoarseNeighborhood(t *testing.T) {
	binom := [4][4]int{{1}, {1, 1}, {1, 2, 1}, {1, 3, 3, 1}}
	for _, dim := range []int{2, 3} {
		top := octant.KeyOf(octant.Root(dim))
		// Subtree roots: the whole tree, and small subtrees in the interior
		// and in a corner, whose neighbors leave the subtree or the tree.
		roots := []octant.Key{top, top.Child(0).Child(1<<dim - 1), top.Child(1<<dim - 1).Child(1<<dim - 1)}
		for _, k := range kRange(dim) {
			bound := 0
			for j := 0; j <= k; j++ {
				bound += binom[dim][j]
			}
			dirs := octant.Directions(dim, k)
			outward := outwardDirections(dim, k)
			for _, root := range roots {
				// gs: every position of g relative to root's boundary — root
				// itself, its corner descendants, an interior one — plus, as
				// pure key arithmetic, a g outside root and outside the tree.
				gs := []octant.Key{root}
				for lv := root.Level() + 1; lv <= octant.MaxLevel-2; lv += 9 {
					gs = append(gs, root.FirstDescendant(lv), root.LastDescendant(lv),
						root.FirstDescendant(lv).Sibling(1<<dim-1))
				}
				gs = append(gs, root.FirstDescendant(octant.MaxLevel-2), root.LastDescendant(octant.MaxLevel-2),
					top.Child(0).Neighbor(octant.Dir{-1, -1, 0}), root.Neighbor(octant.Dir{1, 0, 0}).Child(0))
				for _, g := range gs {
					for c := 0; c < 1<<dim; c++ {
						p := g.Child(c)
						o := p.Child(c ^ 1)

						want := make(map[octant.Key]bool) // value: kept by the root filter
						for _, d := range dirs {
							s0 := p.Neighbor(d)
							want[s0.Sibling(0)] = root.IsAncestor(s0)
						}
						got := map[octant.Key]bool{g.Child(0): root.IsAncestorOrEqual(g)}
						for _, d := range outward[c] {
							gn := g.Neighbor(d)
							got[gn.Child(0)] = root.IsAncestorOrEqual(gn)
						}

						if len(got) != 1+len(outward[c]) || len(got) > bound || len(got) != len(want) {
							t.Fatalf("dim %d k %d g %v c %d: %d families from %d directions, want %d (bound %d)",
								dim, k, g, c, len(got), 1+len(outward[c]), len(want), bound)
						}
						for s, kept := range got {
							wantKept, ok := want[s]
							if !ok || kept != wantKept {
								t.Fatalf("dim %d k %d g %v c %d: family %v kept %v; direction loop has it %v, kept %v",
									dim, k, g, c, s, kept, ok, wantKept)
							}
							if prec := octant.KeyPrecluded(s, o); prec != (s == g.Child(0)) {
								t.Fatalf("dim %d k %d g %v c %d: KeyPrecluded(%v, %v) = %v", dim, k, g, c, s, o, prec)
							}
						}
					}
				}
			}
		}
	}
}

func TestSubtreeNewKeysInvalidCodimensionPanics(t *testing.T) {
	for _, tc := range []struct{ dim, k int }{{2, 0}, {2, 3}, {3, 0}, {3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dim %d k %d: no panic", tc.dim, tc.k)
				}
			}()
			root := octant.KeyOf(octant.Root(tc.dim))
			SubtreeNewKeys(root, []octant.Key{root.Child(0).Child(0)}, tc.k)
		}()
	}
}

// TestSubtreeNewKeysAllocsBounded bounds the allocations of the packed-key
// subtree balance on the canned chunk: seven fixed ones (reduced input and
// its flags, the two arrays of the key set, worklist, merged set,
// completion) plus two per doubling of the key set, whatever the number of
// octants.  The hash maps this replaced allocated 22 times on this input.
func TestSubtreeNewKeysAllocsBounded(t *testing.T) {
	keys := octant.AppendKeys(nil, otest.CannedLeaves(t, 3, 4))
	root := octant.KeyOf(octant.Root(3))
	allocs := testing.AllocsPerRun(10, func() { SubtreeNewKeys(root, keys, 3) })
	if allocs > 11 {
		t.Fatalf("SubtreeNewKeys on the canned chunk: %v allocations, want at most 11", allocs)
	}
}

// FuzzSubtreeNewKeys decodes the input bytes into (dim, k, subtree root,
// random subset of a random complete tree of that root) and checks the key
// path leaf for leaf against the struct oracle SubtreeNew, plus the
// properties the oracle's own tests pin: complete, linear, k-balanced.
func FuzzSubtreeNewKeys(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 9, 1})            // 2D, k=1, whole tree
	f.Add([]byte{1, 2, 0, 4, 200, 7})          // 3D, k=3, whole tree, sparse subset
	f.Add([]byte{1, 1, 2, 3, 30, 42, 5, 1})    // 3D, k=2, depth-2 subtree
	f.Add([]byte{0, 1, 3, 6, 120, 3, 0, 3, 3}) // 2D, k=2, corner subtree of depth 3
	f.Add([]byte{1, 0, 1, 2, 255, 11, 7})      // 3D, k=1, one octant kept
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		dim := 2 + next()%2
		k := 1 + next()%dim
		root := octant.Root(dim)
		depth := next() % 4
		maxLevel := depth + 1 + next()%5
		drop := float64(next()) / 256
		seed := int64(next())
		for i := 0; i < depth; i++ {
			root = root.Child(next() % octant.NumChildren(dim))
		}
		rng := otest.NewRand(seed)
		in := otest.RandomSubset(rng, otest.RandomComplete(rng, root, maxLevel, 0.6), 1-drop)

		checkKeysMatch(t, root, in, k)
		out := octant.AppendOctants(nil, SubtreeNewKeys(octant.KeyOf(root), octant.AppendKeys(nil, in), k))
		if !linear.IsLinear(out) || !linear.IsComplete(root, out) {
			t.Fatalf("dim %d k %d root %v: output not a complete linear octree", dim, k, root)
		}
		if err := Check(root, out, k); err != nil {
			t.Fatalf("dim %d k %d root %v: %v", dim, k, root, err)
		}
	})
}
