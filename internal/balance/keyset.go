package balance

import "repro/internal/octant"

// keySet is an open-addressing (linear probing) hash set of packed octant
// keys with one "precluded" flag per member — the closure state of
// SubtreeNewKeys, which the Go maps it replaces kept as two separate sets.
// The zero Key has Dim() == 0, which no octant has (octant.KeyFromBits
// rejects it), so it marks an empty slot and membership needs no second
// array.  Slots are only ever filled, never cleared.
type keySet struct {
	slots []octant.Key // len is a power of two
	prec  []bool       // prec[i] flags the member in slots[i]
	n     int
	shift uint // 64 - log2(len(slots))
}

// keySetMinSlots keeps the smallest table at one cache line of flags.
const keySetMinSlots = 64

// keySetMaxLoad returns the number of members a table of size slots holds
// before it grows: a load factor of 3/4.
func keySetMaxLoad(size int) int { return size - size/4 }

// newKeySet returns a set that holds members keys before it first grows.
func newKeySet(members int) keySet {
	size, shift := keySetMinSlots, uint(64-6)
	for keySetMaxLoad(size) < members {
		size <<= 1
		shift--
	}
	return keySet{slots: make([]octant.Key, size), prec: make([]bool, size), shift: shift}
}

// home returns the slot k's probe sequence starts at.  Both words feed the
// product: keys of one corner differ only in the level byte of Lo, 3D keys
// finer than level 21 only in Lo's upper half.
func (s *keySet) home(k octant.Key) int {
	return int((k.Hi ^ k.Lo*0x9e3779b97f4a7c15) * 0xd6e8feb86659fd93 >> s.shift)
}

// find returns the slot holding k, or -1 if k is not a member.
func (s *keySet) find(k octant.Key) int {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return i
		case octant.Key{}:
			return -1
		}
	}
}

// add inserts k, which must not be a member (nor the zero Key), with its
// flag clear, and returns its slot.  Slots returned earlier are invalid
// once add has grown the table.
func (s *keySet) add(k octant.Key) int {
	if s.n >= keySetMaxLoad(len(s.slots)) {
		s.grow()
	}
	s.n++
	return s.place(k)
}

// place stores k in the first empty slot of its probe sequence.
func (s *keySet) place(k octant.Key) int {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != (octant.Key{}) {
		i = (i + 1) & mask
	}
	s.slots[i] = k
	return i
}

// grow doubles the table and rehashes every member, flags included.
func (s *keySet) grow() {
	slots, prec := s.slots, s.prec
	s.slots = make([]octant.Key, 2*len(slots))
	s.prec = make([]bool, 2*len(slots))
	s.shift--
	for i, k := range slots {
		if k != (octant.Key{}) {
			s.prec[s.place(k)] = prec[i]
		}
	}
}

// appendUnflagged appends the members whose flag is clear to dst, in slot
// order.
func (s *keySet) appendUnflagged(dst []octant.Key) []octant.Key {
	for i, k := range s.slots {
		if k != (octant.Key{}) && !s.prec[i] {
			dst = append(dst, k)
		}
	}
	return dst
}
