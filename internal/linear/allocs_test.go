package linear

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/octant"
	"repro/internal/otest"
)

// TestKeySortSearchZeroAllocs pins the key sort and the binary searches the
// balance and ghost paths run on to zero allocations over the canned
// fractal chunk (the sort re-sorts a fixed shuffle of it each run).
func TestKeySortSearchZeroAllocs(t *testing.T) {
	keys := octant.AppendKeys(nil, otest.CannedLeaves(t, 3, 4))
	shuffled := slices.Clone(keys)
	rand.New(rand.NewSource(1234)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	work := make([]octant.Key, len(keys))
	out := make([]int, len(keys))
	var sink int
	for _, c := range []struct {
		name   string
		fn     func()
		sorted bool // fn re-sorts work from the shuffle
	}{
		{"SortKeys", func() {
			copy(work, shuffled)
			SortKeys(work)
		}, true},
		{"KeyBatchSortRadix", func() {
			copy(work, shuffled)
			RadixSortKeys(work)
		}, true},
		{"LowerBoundKeys", func() {
			for _, q := range keys {
				sink += LowerBoundKeys(keys, q)
			}
		}, false},
		{"OverlapRangeKeys", func() {
			for _, q := range keys {
				lo, hi := OverlapRangeKeys(keys, q)
				sink += hi - lo
			}
		}, false},
		{"KeyBatchLowerBound", func() { LowerBoundKeysBatch(keys, keys, out) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if a := testing.AllocsPerRun(10, c.fn); a != 0 {
				t.Errorf("%d canned keys: %v allocations, want 0", len(keys), a)
			}
			if c.sorted && !slices.Equal(work, keys) {
				t.Fatal("the sort did not restore the canned order")
			}
		})
	}
	_ = sink
}
