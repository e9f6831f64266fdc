package linear

import (
	"math/rand"
	"testing"

	"repro/internal/octant"
	"repro/internal/otest"
)

// randomLeafSet builds a sorted linear octree fragment by refining random
// octants of a complete coarse tiling.
func randomLeafSet(rng *rand.Rand, dim, depth int) []octant.Octant {
	leaves := []octant.Octant{octant.Root(dim)}
	for d := 0; d < depth; d++ {
		var next []octant.Octant
		for _, o := range leaves {
			if o.Level < octant.MaxLevel && rng.Intn(3) == 0 {
				for c := 0; c < octant.NumChildren(dim); c++ {
					next = append(next, o.Child(c))
				}
			} else {
				next = append(next, o)
			}
		}
		leaves = next
	}
	Sort(leaves)
	return leaves
}

func toKeys(octs []octant.Octant) []octant.Key {
	return octant.AppendKeys(make([]octant.Key, 0, len(octs)), octs)
}

func keysEqualOctants(t *testing.T, what string, keys []octant.Key, octs []octant.Octant) {
	t.Helper()
	if len(keys) != len(octs) {
		t.Fatalf("%s: %d keys vs %d octants", what, len(keys), len(octs))
	}
	for i := range keys {
		if got := keys[i].Octant(); got != octs[i] {
			t.Fatalf("%s: index %d: key %v != octant %v", what, i, got, octs[i])
		}
	}
}

// TestKeysMirrorDifferential pins every Keys primitive element-for-element
// against its struct counterpart on random leaf sets.
func TestKeysMirrorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 20; trial++ {
			leaves := randomLeafSet(rng, dim, 4)
			keys := toKeys(leaves)

			if !IsSortedKeys(keys) || !IsLinearKeys(keys) {
				t.Fatalf("dim %d: key view of linear input not sorted/linear", dim)
			}

			// Sort: shuffle identically, sort both, compare.
			shuffled := append([]octant.Octant(nil), leaves...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			skeys := toKeys(shuffled)
			Sort(shuffled)
			SortKeys(skeys)
			keysEqualOctants(t, "SortKeys", skeys, shuffled)

			// Linearize on input with injected overlaps (ancestors).
			withAnc := append([]octant.Octant(nil), leaves...)
			for _, o := range leaves {
				if o.Level > 0 && rng.Intn(4) == 0 {
					withAnc = append(withAnc, o.Parent())
				}
			}
			Sort(withAnc)
			ancKeys := toKeys(withAnc)
			lin := Linearize(withAnc)
			linKeys := LinearizeKeys(ancKeys)
			keysEqualOctants(t, "LinearizeKeys", linKeys, lin)

			// Searches against members, ancestors, neighbors and misses.
			queries := make([]octant.Octant, 0, 32)
			for i := 0; i < 8; i++ {
				q := leaves[rng.Intn(len(leaves))]
				queries = append(queries, q)
				if q.Level > 0 {
					queries = append(queries, q.Parent())
				}
				if q.Level < octant.MaxLevel {
					queries = append(queries, q.Child(rng.Intn(octant.NumChildren(dim))))
				}
				queries = append(queries, q.Neighbor(octant.Dir{1, 0, 0}))
			}
			for _, q := range queries {
				kq := octant.KeyOf(q)
				if got, want := LowerBoundKeys(keys, kq), LowerBound(leaves, q); got != want {
					t.Fatalf("dim %d: LowerBoundKeys(%v) = %d, want %d", dim, q, got, want)
				}
				if got, want := ContainsKeys(keys, kq), Contains(leaves, q); got != want {
					t.Fatalf("dim %d: ContainsKeys(%v) = %v, want %v", dim, q, got, want)
				}
				glo, ghi := OverlapRangeKeys(keys, kq)
				wlo, whi := OverlapRange(leaves, q)
				if glo != wlo || ghi != whi {
					t.Fatalf("dim %d: OverlapRangeKeys(%v) = [%d,%d), want [%d,%d)", dim, q, glo, ghi, wlo, whi)
				}
				glo, ghi = DescendantRangeKeys(keys, kq)
				// Brute force: q's stored descendants follow its lower bound.
				wlo = LowerBound(leaves, q)
				whi = wlo
				for whi < len(leaves) && q.IsAncestorOrEqual(leaves[whi]) {
					whi++
				}
				if glo != wlo || ghi != whi {
					t.Fatalf("dim %d: DescendantRangeKeys(%v) = [%d,%d), want [%d,%d)", dim, q, glo, ghi, wlo, whi)
				}
			}

			// Reduce + PrecludingMember + Complete round trip.
			red := Reduce(leaves)
			redKeys := ReduceKeys(keys)
			keysEqualOctants(t, "ReduceKeys", redKeys, red)
			for _, q := range queries {
				gi, gok := PrecludingMemberKeys(redKeys, octant.KeyOf(q))
				wi, wok := PrecludingMember(red, q)
				if gi != wi || gok != wok {
					t.Fatalf("dim %d: PrecludingMemberKeys(%v) = (%d,%v), want (%d,%v)", dim, q, gi, gok, wi, wok)
				}
			}
			root := octant.Root(dim)
			comp := Complete(root, red)
			compKeys := CompleteKeys(octant.KeyOf(root), redKeys)
			keysEqualOctants(t, "CompleteKeys", compKeys, comp)
		}
	}
}

// TestCompleteKeysExactAllocation pins the capacity computation: whatever
// the input, the completion is allocated once and filled to the brim.
func TestCompleteKeysExactAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	check := func(root octant.Key, keys []octant.Key) {
		t.Helper()
		var out []octant.Key
		allocs := testing.AllocsPerRun(5, func() { out = CompleteKeys(root, keys) })
		if allocs != 1 || cap(out) != len(out) {
			t.Fatalf("CompleteKeys(%v, %d keys): %v allocations, len %d cap %d; want 1 allocation, cap == len",
				root, len(keys), allocs, len(out), cap(out))
		}
		if want := Complete(root.Octant(), octant.AppendOctants(nil, keys)); len(out) != len(want) {
			t.Fatalf("CompleteKeys(%v, %d keys): %d leaves, Complete has %d", root, len(keys), len(out), len(want))
		}
	}
	for _, dim := range []int{2, 3} {
		top := octant.Root(dim)
		for _, root := range []octant.Octant{top, top.Child(1).Child(2)} {
			rk := octant.KeyOf(root)
			check(rk, nil)
			check(rk, []octant.Key{rk})
			check(rk, []octant.Key{rk.LastDescendant(octant.MaxLevel)})
			for trial := 0; trial < 20; trial++ {
				complete := otest.RandomComplete(rng, root, int(root.Level)+5, 0.6)
				sub := otest.RandomSubset(rng, complete, 0.1+0.8*rng.Float64())
				check(rk, octant.AppendKeys(nil, sub))
				// The reduced set SubtreeNewKeys completes: 0-siblings only
				// (of root itself the 0-sibling lies outside root).
				if sub[0] != root {
					check(rk, LinearizeKeys(ReduceKeys(octant.AppendKeys(nil, sub))))
				}
			}
		}
	}
}
