package linear

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/octant"
)

// adversarialKeys builds key sets that stress the radix byte planes and
// carry paths: constant high-byte prefixes, all-ones coordinates
// (LastDescendant corners), level-boundary octants (0, 1, MaxLevel),
// out-of-root translations, duplicate runs and near-duplicate pairs that
// differ only in the level byte.
func adversarialKeys(rng *rand.Rand, dim int) []octant.Key {
	root := octant.Root(dim)
	var octs []octant.Octant
	for _, l := range []int8{0, 1, 2, 15, 29, 30} {
		octs = append(octs, root.FirstDescendant(l), root.LastDescendant(l))
		h := octant.Len(l)
		for i := 0; i < 20; i++ {
			o := octant.Octant{Level: l, Dim: int8(dim)}
			o.X = int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)
			o.Y = int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)
			if dim == 3 {
				o.Z = int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)
			}
			octs = append(octs, o, o.Translated(-octant.RootLen, 0, 0))
			if l > 0 {
				// Ancestor/descendant near-duplicates: same anchor bits,
				// different level byte — only the final radix plane differs.
				octs = append(octs, o.Ancestor(l-1), o)
			}
		}
	}
	keys := octant.AppendKeys(nil, octs)
	// Duplicate a run to exercise equal-key buckets.
	keys = append(keys, keys[:10]...)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestRadixSortKeysMatchesComparisonSort pins the radix path bit-identical
// to a slices.SortFunc comparison sort on random, adversarial, sorted,
// reversed, constant and tiny inputs.
func TestRadixSortKeysMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(t *testing.T, what string, keys []octant.Key) {
		t.Helper()
		want := append([]octant.Key(nil), keys...)
		slices.SortFunc(want, octant.KeyCompare)
		got := append([]octant.Key(nil), keys...)
		RadixSortKeys(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: radix order differs from comparison order (n=%d)", what, len(keys))
		}
		got2 := append([]octant.Key(nil), keys...)
		SortKeys(got2)
		if !slices.Equal(got2, want) {
			t.Fatalf("%s: SortKeys dispatch differs from comparison order", what)
		}
	}
	for _, dim := range []int{2, 3} {
		adv := adversarialKeys(rng, dim)
		check(t, "adversarial", adv)
		sorted := append([]octant.Key(nil), adv...)
		slices.SortFunc(sorted, octant.KeyCompare)
		check(t, "pre-sorted", sorted)
		slices.Reverse(sorted)
		check(t, "reversed", sorted)
		for _, n := range []int{0, 1, 2, 3, radixMinLen - 1, radixMinLen, 257} {
			if n > len(adv) {
				n = len(adv)
			}
			check(t, "prefix", adv[:n])
		}
		// Constant slice: the XOR prefix scan must conclude "all equal".
		const47 := make([]octant.Key, 300)
		for i := range const47 {
			const47[i] = adv[47%len(adv)]
		}
		check(t, "constant", const47)
		// Random refined leaf sets — the shape the balance hot path sorts.
		for trial := 0; trial < 6; trial++ {
			keys := toKeys(randomLeafSet(rng, dim, 5))
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			check(t, "leafset", keys)
		}
	}
}

// TestLowerBoundKeysBatchMatchesScalar pins the shrinking-window batch
// lower bound to per-target LowerBoundKeys on sorted targets, including
// targets below, inside, between and above the key range.
func TestLowerBoundKeysBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 20; trial++ {
			keys := toKeys(randomLeafSet(rng, dim, 4))
			targets := adversarialKeys(rng, dim)[:40]
			// Mix in exact members so hits and misses both occur.
			for i := 0; i < 10 && i < len(keys); i++ {
				targets = append(targets, keys[rng.Intn(len(keys))])
			}
			slices.SortFunc(targets, octant.KeyCompare)
			out := make([]int, len(targets))
			LowerBoundKeysBatch(keys, targets, out)
			for i, tg := range targets {
				if want := LowerBoundKeys(keys, tg); out[i] != want {
					t.Fatalf("dim %d target %d: batch lower bound %d, scalar %d", dim, i, out[i], want)
				}
			}
		}
	}
}
