// Package otest provides deterministic random octree generators shared by
// the test suites of the other packages.  It is not part of the public API.
//
// # Seed convention
//
// All randomness in the test suites flows from a single int64 seed so that
// any failure is replayable byte-for-byte:
//
//   - Generators that walk a tree sequentially take an explicit *rand.Rand
//     (never the global math/rand source); create one with NewRand(seed).
//   - Refinement predicates used with Forest.Refine must instead be pure
//     functions of (tree, octant): during a distributed refinement every
//     rank evaluates the predicate on its own leaves, so any traversal-order
//     or shared-stream dependence would make ranks disagree.  The *Refiner
//     constructors below therefore hash (seed, tree, coordinates) with
//     SplitMix64 rather than consuming a stream.
//   - Derived sub-seeds (per tree, per axis, per trial) are obtained with
//     SplitMix64 of the parent seed xor a role constant, never by reusing
//     the parent seed directly for two roles.
package otest

import (
	"math/rand"
	"testing"

	"repro/internal/octant"
)

// NewRand returns the canonical deterministic source for a test seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitMix64 is the SplitMix64 finalizer: a strong 64-bit mixer used to
// derive independent sub-seeds and to build pure hash-based refinement
// predicates.
func SplitMix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RandomComplete returns a random complete linear octree of root: starting
// from root, every octant is split with probability splitProb until
// maxLevel.  The result is sorted, linear and complete by construction.
func RandomComplete(rng *rand.Rand, root octant.Octant, maxLevel int, splitProb float64) []octant.Octant {
	var out []octant.Octant
	var walk func(o octant.Octant)
	walk = func(o octant.Octant) {
		if int(o.Level) < maxLevel && rng.Float64() < splitProb {
			for c := 0; c < octant.NumChildren(int(o.Dim)); c++ {
				walk(o.Child(c))
			}
			return
		}
		out = append(out, o)
	}
	walk(root)
	return out
}

// RandomGraded returns a random complete linear octree whose refinement is
// concentrated around a random point, producing the highly graded meshes
// that stress 2:1 balance.  Octants containing (or adjacent to) the focus
// point refine to maxLevel; refinement probability decays with distance.
func RandomGraded(rng *rand.Rand, root octant.Octant, maxLevel int) []octant.Octant {
	dim := int(root.Dim)
	var focus [3]int64
	for i := 0; i < dim; i++ {
		focus[i] = int64(rng.Int31n(octant.RootLen))
	}
	var out []octant.Octant
	var walk func(o octant.Octant)
	walk = func(o octant.Octant) {
		if int(o.Level) < maxLevel && containsPoint(o, focus) {
			for c := 0; c < octant.NumChildren(dim); c++ {
				walk(o.Child(c))
			}
			return
		}
		out = append(out, o)
	}
	walk(root)
	return out
}

func containsPoint(o octant.Octant, p [3]int64) bool {
	h := int64(o.Len())
	for i := 0; i < int(o.Dim); i++ {
		c := int64(o.Coord(i))
		if p[i] < c || p[i] >= c+h {
			return false
		}
	}
	return true
}

// RandomSubset returns a sorted random subset of octs keeping each element
// with probability keep; it always keeps at least one element.
func RandomSubset(rng *rand.Rand, octs []octant.Octant, keep float64) []octant.Octant {
	var out []octant.Octant
	for _, o := range octs {
		if rng.Float64() < keep {
			out = append(out, o)
		}
	}
	if len(out) == 0 && len(octs) > 0 {
		out = append(out, octs[rng.Intn(len(octs))])
	}
	return out
}

// RandomOctant returns a uniformly random in-root octant with level in
// [minLevel, maxLevel].
func RandomOctant(rng *rand.Rand, dim, minLevel, maxLevel int) octant.Octant {
	l := minLevel + rng.Intn(maxLevel-minLevel+1)
	idx := uint64(0)
	if l > 0 {
		idx = rng.Uint64()
		if bits := uint(dim) * uint(l); bits < 64 {
			idx %= uint64(1) << bits
		}
	}
	return octant.FromMortonIndex(dim, l, idx)
}

// CannedLeaves returns the deterministic fractal leaf set the allocation
// tests run on: FractalRefiner(maxLevel) applied to a single tree from its
// root.  It fails tb unless the set has at least 100 leaves and is strictly
// sorted and linear, so an allocation bound measured on it cannot pass on
// an input that does no work.
func CannedLeaves(tb testing.TB, dim, maxLevel int) []octant.Octant {
	tb.Helper()
	split := FractalRefiner(maxLevel)
	var out []octant.Octant
	var rec func(o octant.Octant)
	rec = func(o octant.Octant) {
		if !split(0, o) {
			out = append(out, o)
			return
		}
		for ci := 0; ci < octant.NumChildren(dim); ci++ {
			rec(o.Child(ci))
		}
	}
	rec(octant.Root(dim))
	if len(out) < 100 {
		tb.Fatalf("canned leaf set has only %d leaves", len(out))
	}
	for i := 1; i < len(out); i++ {
		if octant.Compare(out[i-1], out[i]) >= 0 || out[i-1].IsAncestor(out[i]) {
			tb.Fatalf("canned leaf set not sorted and linear at %d", i)
		}
	}
	return out
}

// RefineFunc is the predicate shape of Forest.Refine: pure in (tree, o).
type RefineFunc func(tree int32, o octant.Octant) bool

// FractalRefiner returns the paper's Figure 15 refinement rule as a pure
// predicate: octants with child identifiers 0, 3, 5 and 6 split recursively
// up to maxLevel.
func FractalRefiner(maxLevel int) RefineFunc {
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

// HashRefiner returns a pure pseudo-random refinement predicate: each octant
// splits with probability percent/100, decided by SplitMix64 of (seed, tree,
// corner, level).  Unlike RandomComplete it does not consume a stream, so
// ranks of a distributed forest agree on every decision regardless of
// partition or traversal order.
func HashRefiner(seed uint64, maxLevel, percent int) RefineFunc {
	return func(tree int32, o octant.Octant) bool {
		if int(o.Level) >= maxLevel {
			return false
		}
		h := SplitMix64(seed ^ uint64(uint32(tree)))
		h = SplitMix64(h ^ uint64(uint32(o.X)))
		h = SplitMix64(h ^ uint64(uint32(o.Y)))
		h = SplitMix64(h ^ uint64(uint32(o.Z)))
		h = SplitMix64(h ^ uint64(uint8(o.Level)))
		return h%100 < uint64(percent)
	}
}

// GradedRefiner returns a pure predicate that refines towards one focus
// point per tree (derived from seed and the tree id), producing the highly
// graded meshes that stress long-range balance interactions: octants
// containing their tree's focus point refine all the way to maxLevel.
func GradedRefiner(seed uint64, dim, maxLevel int) RefineFunc {
	return func(tree int32, o octant.Octant) bool {
		if int(o.Level) >= maxLevel {
			return false
		}
		var focus [3]int64
		h := SplitMix64(seed ^ uint64(uint32(tree)))
		for i := 0; i < dim; i++ {
			h = SplitMix64(h)
			focus[i] = int64(h % uint64(octant.RootLen))
		}
		return containsPoint(o, focus)
	}
}

// Equal reports whether two octant slices are element-wise identical.
func Equal(a, b []octant.Octant) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
