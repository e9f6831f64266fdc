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
