package harness

import (
	"fmt"

	"repro/internal/forest"
)

// DiffGhostLayers compares two ghost layers of one rank — say, built under
// two transports or two codecs — entry for entry and reports the first
// difference.
func DiffGhostLayers(got, want []forest.GhostOctant) error {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("ghost %d is %+v, the other layer has %+v (lengths %d vs %d)",
				i, got[i], want[i], len(got), len(want))
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("ghost layer has %d octants, the other %d", len(got), len(want))
	}
	return nil
}
