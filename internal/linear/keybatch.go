package linear

// This file is the batch-kernel layer over packed key slices: a batched
// lower bound whose ascending targets shrink each successive search window
// (the traversal's window splitting) and an in-place MSD radix sort over
// the 16 big-endian key bytes (behind SortKeys); each kernel is pinned to
// its scalar twin by the property tests in keybatch_test.go.

import (
	"math/bits"

	"repro/internal/octant"
)

// LowerBoundKeysBatch finds the lower bound of every target in keys,
// writing the indices into out.  The targets must be ascending: each
// search reuses the previous result as its left edge, so a fan of child
// boundaries over one node window costs one shrinking binary search per
// boundary with a hand-rolled branch-lean loop instead of a comparator
// closure per probe.  Used by the packed-key traversal's window splitting.
func LowerBoundKeysBatch(keys []octant.Key, targets []octant.Key, out []int) {
	lo := 0
	for t := range targets {
		k := targets[t]
		i, j := lo, len(keys)
		for i < j {
			m := int(uint(i+j) >> 1)
			if km := keys[m]; km.Hi < k.Hi || (km.Hi == k.Hi && km.Lo < k.Lo) {
				i = m + 1
			} else {
				j = m
			}
		}
		out[t] = i
		lo = i
	}
}

// Radix sort tuning: slices shorter than radixMinLen (and radix buckets
// that shrink below it) use insertion sort — the crossover where the
// 256-entry counting pass stops paying for itself on 16-byte keys.
const radixMinLen = 48

// keyByte returns byte plane p (0 = most significant) of the 128-bit key.
func keyByte(k octant.Key, p uint) uint {
	if p < 8 {
		return uint(k.Hi>>(56-8*p)) & 0xff
	}
	return uint(k.Lo>>(120-8*p)) & 0xff
}

// insertionSortKeys sorts small key slices in place.
func insertionSortKeys(keys []octant.Key) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && (keys[j].Hi > k.Hi || (keys[j].Hi == k.Hi && keys[j].Lo > k.Lo)) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
}

// RadixSortKeys sorts keys in Morton order in place with an MSD
// American-flag radix partition over the 16 big-endian key bytes.  The
// packed key's total order is its 128-bit unsigned value (sign-shifted
// coordinates, level in the low byte), so byte-lexicographic order is
// exactly octant.KeyCompare order and the result is bit-identical to the
// comparison sort at zero allocations.  An XOR-accumulated prefix scan
// skips the byte planes shared by the whole slice (chunks of a refined
// forest share tree-level high bytes), and buckets below radixMinLen fall
// back to insertion sort.
func RadixSortKeys(keys []octant.Key) {
	if len(keys) < radixMinLen {
		insertionSortKeys(keys)
		return
	}
	// Find the first byte plane on which the slice differs at all.
	var accHi, accLo uint64
	h0, l0 := keys[0].Hi, keys[0].Lo
	for _, k := range keys {
		accHi |= k.Hi ^ h0
		accLo |= k.Lo ^ l0
	}
	var plane uint
	switch {
	case accHi != 0:
		plane = uint(bits.LeadingZeros64(accHi)) >> 3
	case accLo != 0:
		plane = 8 + uint(bits.LeadingZeros64(accLo))>>3
	default:
		return // all keys equal
	}
	radixSortKeysAt(keys, plane)
}

// radixSortKeysAt sorts keys by byte planes plane..15, assuming all
// earlier planes are constant across the slice.
func radixSortKeysAt(keys []octant.Key, plane uint) {
	for {
		if len(keys) < radixMinLen {
			insertionSortKeys(keys)
			return
		}
		if plane >= 16 {
			return // all 16 planes constant: keys equal
		}
		var counts [256]int
		for i := range keys {
			counts[keyByte(keys[i], plane)]++
		}
		if counts[keyByte(keys[0], plane)] == len(keys) {
			plane++ // single bucket: this plane is constant too
			continue
		}
		var start, end, pos [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			start[b] = sum
			sum += counts[b]
			end[b] = sum
		}
		pos = start
		// American-flag permutation: walk each bucket's window and swap
		// misplaced keys directly into their home bucket.
		for b := 0; b < 256; b++ {
			for i := pos[b]; i < end[b]; i = pos[b] {
				k := keys[i]
				c := keyByte(k, plane)
				for c != uint(b) {
					j := pos[c]
					pos[c]++
					keys[j], k = k, keys[j]
					c = keyByte(k, plane)
				}
				keys[i] = k
				pos[b]++
			}
		}
		// Recurse into every non-trivial bucket on the next plane; the
		// largest bucket is handled iteratively to bound the stack.
		big := -1
		for b := 0; b < 256; b++ {
			if end[b]-start[b] > 1 {
				if big < 0 || end[b]-start[b] > end[big]-start[big] {
					big = b
				}
			}
		}
		for b := 0; b < 256; b++ {
			if b != big && end[b]-start[b] > 1 {
				radixSortKeysAt(keys[start[b]:end[b]], plane+1)
			}
		}
		if big < 0 {
			return
		}
		keys = keys[start[big]:end[big]]
		plane++
	}
}
