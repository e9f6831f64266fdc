package linear

import (
	"math/rand"
	"testing"

	"repro/internal/octant"
	"repro/internal/otest"
)

func TestSortAndIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 3} {
		octs := make([]octant.Octant, 200)
		for i := range octs {
			octs[i] = otest.RandomOctant(rng, dim, 0, 8)
		}
		Sort(octs)
		for i := 0; i+1 < len(octs); i++ {
			if octant.Compare(octs[i], octs[i+1]) > 0 {
				t.Fatal("Sort did not sort")
			}
		}
		// Linearize compacts in place; check its output last.
		if !IsSorted(Linearize(octs)) {
			t.Fatal("linearized sorted array not sorted")
		}
	}
}

func TestIsLinearDetectsOverlap(t *testing.T) {
	root := octant.Root(2)
	a := root.Child(0)
	withAncestor := []octant.Octant{a, a.Child(1)}
	if IsLinear(withAncestor) {
		t.Error("ancestor/descendant pair accepted as linear")
	}
	dup := []octant.Octant{a, a}
	if IsLinear(dup) {
		t.Error("duplicate accepted as linear")
	}
	ok := []octant.Octant{a.Child(0), a.Child(1), root.Child(1)}
	if !IsLinear(ok) {
		t.Error("valid linear array rejected")
	}
}

func TestLinearizeKeepsLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 50; trial++ {
			root := octant.Root(dim)
			complete := otest.RandomComplete(rng, root, 5, 0.7)
			// Inject ancestors of random leaves plus duplicates.
			mixed := append([]octant.Octant{}, complete...)
			for i := 0; i < len(complete)/3+1; i++ {
				o := complete[rng.Intn(len(complete))]
				if o.Level > 0 {
					mixed = append(mixed, o.Ancestor(int8(rng.Intn(int(o.Level)))))
				}
				mixed = append(mixed, o)
			}
			Sort(mixed)
			got := Linearize(mixed)
			if !otest.Equal(got, complete) {
				t.Fatalf("dim %d: Linearize did not recover the %d leaves (got %d)", dim, len(complete), len(got))
			}
		}
	}
}

func TestIsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for trial := 0; trial < 50; trial++ {
			complete := otest.RandomComplete(rng, root, 5, 0.6)
			if !IsComplete(root, complete) {
				t.Fatalf("dim %d: complete octree rejected", dim)
			}
			if len(complete) > 1 {
				// Removing any single leaf breaks completeness.
				i := rng.Intn(len(complete))
				holey := append(append([]octant.Octant{}, complete[:i]...), complete[i+1:]...)
				if IsComplete(root, holey) {
					t.Fatalf("dim %d: octree with hole accepted", dim)
				}
			}
		}
	}
}

func TestCompleteFillsGapsCoarsest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for trial := 0; trial < 50; trial++ {
			complete := otest.RandomComplete(rng, root, 5, 0.6)
			sub := otest.RandomSubset(rng, complete, 0.3)
			got := Complete(root, sub)
			if !IsLinear(got) {
				t.Fatal("Complete output not linear")
			}
			if !IsComplete(root, got) {
				t.Fatal("Complete output not complete")
			}
			// Every input octant survives as a leaf.
			for _, s := range sub {
				if !Contains(got, s) {
					t.Fatalf("input octant %v lost", s)
				}
			}
			// Coarsest: no complete sibling family without an input
			// member may exist (it could have been its parent).
			inInput := map[octant.Octant]bool{}
			for _, s := range sub {
				inInput[s] = true
			}
			byStart := map[octant.Octant]int{}
			for i, o := range got {
				byStart[o] = i
			}
			for _, o := range got {
				if o.Level == 0 || o.ChildID() != 0 {
					continue
				}
				famComplete := true
				famHasInput := false
				for c := 0; c < octant.NumChildren(dim); c++ {
					s := o.Sibling(c)
					if _, ok := byStart[s]; !ok {
						famComplete = false
						break
					}
					if inInput[s] {
						famHasInput = true
					}
				}
				if famComplete && !famHasInput {
					t.Fatalf("family of %v could be coarsened: output not coarsest", o)
				}
			}
		}
	}
}

func TestCompleteOfCompleteIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for trial := 0; trial < 30; trial++ {
			complete := otest.RandomComplete(rng, root, 5, 0.6)
			got := Complete(root, complete)
			if !otest.Equal(got, complete) {
				t.Fatalf("dim %d: Complete changed a complete octree", dim)
			}
		}
	}
}

func TestReduceCompleteRoundTrip(t *testing.T) {
	// The central property of Section III-B: a complete linear octree is
	// exactly recovered by completing its reduction.
	rng := rand.New(rand.NewSource(6))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for trial := 0; trial < 80; trial++ {
			complete := otest.RandomComplete(rng, root, 6, 0.6)
			r := Reduce(complete)
			if !IsSorted(r) {
				t.Fatal("Reduce output not sorted")
			}
			got := Complete(root, r)
			if !otest.Equal(got, complete) {
				t.Fatalf("dim %d trial %d: Reduce/Complete round trip failed: %d leaves -> %d reduced -> %d completed",
					dim, trial, len(complete), len(r), len(got))
			}
		}
	}
}

func TestReduceCompressionBound(t *testing.T) {
	// |Reduce(S)| <= |S| / 2^d for complete S (paper, Section III-B).
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for trial := 0; trial < 30; trial++ {
			complete := otest.RandomComplete(rng, root, 6, 0.7)
			if len(complete) == 1 {
				continue
			}
			r := Reduce(complete)
			if len(r)*octant.NumChildren(dim) > len(complete) {
				t.Fatalf("dim %d: |R| = %d > |S|/2^d = %d/%d", dim, len(r), len(complete), octant.NumChildren(dim))
			}
		}
	}
}

func TestReduceMembersAreZeroSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	root := octant.Root(3)
	complete := otest.RandomComplete(rng, root, 5, 0.6)
	for _, o := range Reduce(complete) {
		if o.Level > 0 && o.ChildID() != 0 {
			t.Fatalf("reduced member %v is not a 0-sibling", o)
		}
	}
}

func TestPrecludingMemberMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for trial := 0; trial < 40; trial++ {
			complete := otest.RandomComplete(rng, root, 5, 0.6)
			r := Reduce(complete)
			for i := 0; i < 50; i++ {
				s := otest.RandomOctant(rng, dim, 1, 6).Sibling(0)
				_, got := PrecludingMember(r, s)
				want := false
				for _, tt := range r {
					if octant.PrecludedEqual(tt, s) {
						want = true
						break
					}
				}
				if got != want {
					t.Fatalf("dim %d: PrecludingMember(%v) = %v, want %v", dim, s, got, want)
				}
			}
		}
	}
}

func TestOverlapRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{2, 3} {
		root := octant.Root(dim)
		for trial := 0; trial < 40; trial++ {
			complete := otest.RandomComplete(rng, root, 5, 0.6)
			for i := 0; i < 30; i++ {
				q := otest.RandomOctant(rng, dim, 0, 6)
				lo, hi := OverlapRange(complete, q)
				for j, o := range complete {
					in := j >= lo && j < hi
					want := o.Overlaps(q)
					if in != want {
						t.Fatalf("dim %d: OverlapRange(%v): index %d (%v) in-range=%v overlaps=%v",
							dim, q, j, o, in, want)
					}
				}
			}
		}
	}
}

func TestLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	root := octant.Root(2)
	complete := otest.RandomComplete(rng, root, 5, 0.6)
	for i, o := range complete {
		if got := LowerBound(complete, o); got != i {
			t.Fatalf("LowerBound(existing %v) = %d, want %d", o, got, i)
		}
		if !Contains(complete, o) {
			t.Fatalf("Contains(existing) = false")
		}
	}
	if Contains(complete, complete[0].Child(0)) {
		t.Fatal("Contains(absent) = true")
	}
}
