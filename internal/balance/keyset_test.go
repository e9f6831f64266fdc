package balance

import (
	"math/rand"
	"testing"

	"repro/internal/octant"
)

// checkKeySet compares s member for member, flag for flag, with the map
// model: want[k] is k's flag.
func checkKeySet(t *testing.T, s *keySet, want map[octant.Key]bool, absent []octant.Key) {
	t.Helper()
	if s.n != len(want) {
		t.Fatalf("set holds %d members, model %d", s.n, len(want))
	}
	unflagged := 0
	for k, flag := range want {
		slot := s.find(k)
		if slot < 0 {
			t.Fatalf("member %v not found", k)
		}
		if s.slots[slot] != k || s.prec[slot] != flag {
			t.Fatalf("slot %d holds %v flag %v, want %v flag %v", slot, s.slots[slot], s.prec[slot], k, flag)
		}
		if !flag {
			unflagged++
		}
	}
	for _, k := range absent {
		if _, in := want[k]; !in && s.find(k) >= 0 {
			t.Fatalf("non-member %v found", k)
		}
	}
	got := s.appendUnflagged(nil)
	if len(got) != unflagged {
		t.Fatalf("appendUnflagged returned %d keys, want %d", len(got), unflagged)
	}
	for _, k := range got {
		if flag, in := want[k]; !in || flag {
			t.Fatalf("appendUnflagged returned %v (member %v, flagged %v)", k, in, flag)
		}
	}
}

// TestKeySetMatchesMap grows a set from its smallest table through several
// rehashes, flagging members along the way, and checks it against a map
// after every insertion batch: flags set before a rehash must survive it.
func TestKeySetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 3} {
		// Every octant of levels 1..7-dim: ancestors and their first
		// descendants share a corner, so many keys differ in the level
		// byte alone.
		var keys []octant.Key
		root := octant.KeyOf(octant.Root(dim))
		for lv := int8(1); lv <= int8(7-dim); lv++ {
			keys = octant.AppendKeySuccessors(keys, root.FirstDescendant(lv), 1<<(uint(dim)*uint(lv)))
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		members, absent := keys[:len(keys)/2], keys[len(keys)/2:]

		s := newKeySet(0)
		want := make(map[octant.Key]bool)
		grown := 0
		for i, k := range members {
			size := len(s.slots)
			slot := s.add(k)
			want[k] = false
			if len(s.slots) != size {
				grown++
				checkKeySet(t, &s, want, absent)
			}
			if s.slots[slot] != k {
				t.Fatalf("add(%v) returned slot %d holding %v", k, slot, s.slots[slot])
			}
			if i%3 == 0 {
				s.prec[slot] = true
				want[k] = true
			}
		}
		if grown < 3 {
			t.Fatalf("dim %d: table grew %d times over %d members; the test needs several rehashes", dim, grown, len(members))
		}
		checkKeySet(t, &s, want, absent)
	}
}

// TestKeySetForcedCollisions fills one probe chain: keys that all hash to
// the same home slot must each be found, in a table that never grows, and
// a colliding non-member must end the probe at the first empty slot.
func TestKeySetForcedCollisions(t *testing.T) {
	s := newKeySet(0)
	root := octant.KeyOf(octant.Root(3))
	var chain []octant.Key
	home := -1
	for k := root.FirstDescendant(8); len(chain) < 9; k = k.Successor() {
		switch {
		case home < 0:
			home = s.home(k)
			chain = append(chain, k)
		case s.home(k) == home:
			chain = append(chain, k)
		}
	}
	members, outsider := chain[:8], chain[8]
	want := make(map[octant.Key]bool)
	for i, k := range members {
		slot := s.add(k)
		if wantSlot := (home + i) % len(s.slots); slot != wantSlot {
			t.Fatalf("collision %d landed in slot %d, want %d", i, slot, wantSlot)
		}
		s.prec[slot] = i%2 == 1
		want[k] = i%2 == 1
	}
	if len(s.slots) != keySetMinSlots {
		t.Fatalf("table grew to %d slots", len(s.slots))
	}
	checkKeySet(t, &s, want, []octant.Key{outsider})
}

// TestKeySetWrapsAround places a probe chain across the end of the table.
func TestKeySetWrapsAround(t *testing.T) {
	s := newKeySet(0)
	root := octant.KeyOf(octant.Root(2))
	want := make(map[octant.Key]bool)
	last := len(s.slots) - 1
	for k := root.FirstDescendant(10); len(want) < 3; k = k.Successor() {
		if s.home(k) == last {
			s.add(k)
			want[k] = false
		}
	}
	if s.slots[last] == (octant.Key{}) || s.slots[0] == (octant.Key{}) || s.slots[1] == (octant.Key{}) {
		t.Fatalf("chain did not wrap: slots[last], [0], [1] = %v, %v, %v", s.slots[last], s.slots[0], s.slots[1])
	}
	checkKeySet(t, &s, want, nil)
}

// TestNewKeySetCapacity checks the promise of newKeySet: that many members
// fit without a rehash.
func TestNewKeySetCapacity(t *testing.T) {
	root := octant.KeyOf(octant.Root(3))
	for _, members := range []int{0, 1, 48, 49, 1000} {
		s := newKeySet(members)
		size := len(s.slots)
		k := root.FirstDescendant(6)
		for i := 0; i < members; i++ {
			s.add(k)
			k = k.Successor()
		}
		if len(s.slots) != size {
			t.Fatalf("newKeySet(%d): table grew from %d to %d slots", members, size, len(s.slots))
		}
	}
}
