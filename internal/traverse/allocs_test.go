package traverse

import (
	"testing"

	"repro/internal/octant"
	"repro/internal/otest"
)

// TestSearchKeysZeroAllocs pins the recursive traversal itself — window
// splitting by lower-bound searches plus the callback dispatch — to zero
// allocations: a never-pruning SearchKeys over the canned fractal chunk.
func TestSearchKeysZeroAllocs(t *testing.T) {
	keys := octant.AppendKeys(nil, otest.CannedLeaves(t, 3, 4))
	root := octant.KeyOf(octant.Root(3))
	var st Stats
	allocs := testing.AllocsPerRun(10, func() {
		st = Stats{}
		SearchKeys(root, keys, func(octant.Key, int, int, bool) bool { return true }, &st)
	})
	if st.Leaves != len(keys) {
		t.Fatalf("SearchKeys visited %d of %d canned leaves", st.Leaves, len(keys))
	}
	if allocs != 0 {
		t.Fatalf("SearchKeys over %d canned keys: %v allocations, want 0", len(keys), allocs)
	}
}

// TestSearchBoundaryKeysMissAllocs pins the sizing of the active-box stack
// to the task: a task root that meets none of a large box set prunes its
// whole subtree without allocating.
func TestSearchBoundaryKeysMissAllocs(t *testing.T) {
	rk := octant.KeyOf(octant.Root(3))
	root := rk.Child(0)
	leaves := make([]octant.Key, 8)
	for i := range leaves {
		leaves[i] = root.Child(i)
	}
	// Insulation boxes of octants in the far corner reach no closer to
	// root than the domain's center plane.
	far := rk.Child(7).Child(7)
	boxes := make([]Box, 10000)
	for i := range boxes {
		o := far.Child(i % 8).Child(i / 8 % 8)
		for j := 0; j < i%3; j++ {
			o = o.Child(i / 64 % 8)
		}
		boxes[i] = InsulationBox(o.Octant())
	}
	var st Stats
	matches := 0
	match := func(int, int) { matches++ }
	allocs := testing.AllocsPerRun(10, func() {
		st = Stats{}
		SearchBoundaryKeys(root, leaves, boxes, match, &st)
	})
	if matches != 0 || st.Pruned != 1 || st.Visited() != 0 {
		t.Fatalf("disjoint boxes: %d matches, stats %+v; want one pruned root", matches, st)
	}
	if allocs != 0 {
		t.Fatalf("SearchBoundaryKeys with a root meeting none of %d boxes: %v allocations, want 0", len(boxes), allocs)
	}
}
