package balance

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/octant"
)

// randomSeedPair returns a fine octant o and a coarser region r close enough
// to interact: r is an ancestor of o moved over by up to three of its own
// lengths, which puts it inside the root, across the root boundary (the
// frame of a neighboring tree) or, for the level-0 ancestor, entirely
// outside.  Levels reach MaxLevel.
func randomSeedPair(rng *rand.Rand, dim int) (o, r octant.Octant) {
	levels := []int{2, 3, 4, 5, 8, 13, octant.MaxLevel - 1, octant.MaxLevel}
	lo := levels[rng.Intn(len(levels))]
	o = octant.Octant{Level: int8(lo), Dim: int8(dim)}
	for i := 0; i < dim; i++ {
		o = o.WithCoord(i, int32(rng.Intn(1<<lo))<<(octant.MaxLevel-lo))
	}
	a := o.Ancestor(int8(rng.Intn(lo)))
	var step [3]int32
	for i := 0; i < dim; i++ {
		step[i] = int32(rng.Intn(7)-3) * a.Len()
	}
	return o, a.Translated(step[0], step[1], step[2])
}

// TestSeedsSiblingInvariant is the licence for the responder's family skip:
// Tk(o) = Tk(s) for every sibling s of o, so the seeds of a whole sibling
// family within any region are those of one member.
func TestSeedsSiblingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{2, 3} {
		for k := 1; k <= dim; k++ {
			split, outOfRoot := 0, 0
			for trial := 0; trial < 20000; trial++ {
				o, r := randomSeedPair(rng, dim)
				if r.Overlaps(o) {
					continue
				}
				want, wantSplits := Seeds(o, r, k)
				if wantSplits {
					split++
					if !r.InsideRoot() {
						outOfRoot++
					}
				}
				for i := 0; i < octant.NumChildren(dim); i++ {
					got, gotSplits := Seeds(o.Sibling(i), r, k)
					if gotSplits != wantSplits || !slices.Equal(got, want) {
						t.Fatalf("dim %d k %d: Seeds(%v, %v) = %v, %v but sibling %d gives %v, %v",
							dim, k, o, r, want, wantSplits, i, got, gotSplits)
					}
				}
			}
			if split < 300 || outOfRoot < 100 {
				t.Errorf("dim %d k %d: only %d splitting pairs (%d out of root) — the property is barely exercised",
					dim, k, split, outOfRoot)
			}
		}
	}
}

// TestAppendSeedsReusesBuffer pins the kernel's contract: with room in the
// caller's buffer it allocates nothing, and Seeds is exactly its output
// sorted and deduplicated.
func TestAppendSeedsReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dim := range []int{2, 3} {
		buf := make([]octant.Octant, 0, 64)
		for trial := 0; trial < 2000; trial++ {
			o, r := randomSeedPair(rng, dim)
			if r.Overlaps(o) {
				continue
			}
			var raw []octant.Octant
			var splits bool
			if n := testing.AllocsPerRun(1, func() { raw, splits = AppendSeeds(buf[:0], o, r, dim) }); n != 0 {
				t.Fatalf("dim %d: AppendSeeds(%v, %v) allocates %v times into a roomy buffer", dim, o, r, n)
			}
			want, wantSplits := Seeds(o, r, dim)
			if splits != wantSplits {
				t.Fatalf("dim %d: AppendSeeds splits=%v, Seeds splits=%v for o=%v r=%v", dim, splits, wantSplits, o, r)
			}
			for _, s := range raw {
				if !slices.Contains(want, s) {
					t.Fatalf("dim %d: AppendSeeds produced %v, not among Seeds %v", dim, s, want)
				}
			}
			for _, s := range want {
				if !slices.Contains(raw, s) {
					t.Fatalf("dim %d: Seeds has %v, AppendSeeds lacks it: %v", dim, s, raw)
				}
			}
		}
	}
}

// TestSeedsReconstructionKBelowDim pins two 3D pairs where the seeds of a's
// coarse neighborhood alone reconstruct too coarse an overlap under k < d:
// Tk(o) ∩ r needs the rings around a's coarser ancestors as well.
func TestSeedsReconstructionKBelowDim(t *testing.T) {
	root := octant.Root(3)
	for _, c := range []struct {
		o, r   octant.Octant
		k      int
		leaves int
	}{
		{octant.New(3, 6, 419430400, 218103808, 251658240), octant.New(3, 1, 536870912, 0, 0), 1, 36},
		{octant.New(3, 5, 503316480, 469762048, 67108864), octant.New(3, 1, 536870912, 536870912, 0), 2, 29},
	} {
		checkSeeds(t, c.o, c.r, c.k, Tk(root, c.o, c.k))
		if got := len(TkOverlap(c.o, c.r, c.k)); got != c.leaves {
			t.Errorf("TkOverlap(%v, %v, %d): %d leaves, want %d", c.o, c.r, c.k, got, c.leaves)
		}
	}
}
