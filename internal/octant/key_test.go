package octant

import (
	"math/rand"
	"testing"
)

// keyLattice returns a deterministic mix of octants across the level range,
// including root, MaxLevel corners, and out-of-root translations on every
// axis — the inputs the packed key must agree with the struct code on.
func keyLattice(dim int) []Octant {
	rng := rand.New(rand.NewSource(7))
	var out []Octant
	for _, l := range []int8{0, 1, 2, 3, 5, 14, 15, 29, 30} {
		h := Len(l)
		root := Root(dim)
		out = append(out, root.FirstDescendant(l), root.LastDescendant(l))
		for i := 0; i < 10; i++ {
			o := Octant{Level: l, Dim: int8(dim)}
			o.X = int32(rng.Int63n(int64(RootLen))) &^ (h - 1)
			o.Y = int32(rng.Int63n(int64(RootLen))) &^ (h - 1)
			if dim == 3 {
				o.Z = int32(rng.Int63n(int64(RootLen))) &^ (h - 1)
			}
			out = append(out, o)
			// Out-of-root company: negative coordinates and coordinates
			// beyond RootLen, all still grid-aligned.
			out = append(out, o.Translated(-RootLen, 0, 0))
			out = append(out, o.Translated(RootLen, -RootLen, 0))
			if dim == 3 {
				out = append(out, o.Translated(0, 0, -RootLen))
			}
			if l >= 1 {
				out = append(out, o.Translated(-h, h, 0))
			}
		}
	}
	return out
}

func checkKeyOctant(t *testing.T, k Key, want Octant) {
	t.Helper()
	if got := k.Octant(); got != want {
		t.Fatalf("key %v unpacks to %v, want %v", k, got, want)
	}
	if KeyOf(want) != k {
		t.Fatalf("KeyOf(%v) = %v, want %v", want, KeyOf(want), k)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, o := range keyLattice(dim) {
			if err := o.Check(); err != nil {
				t.Fatalf("lattice octant invalid: %v", err)
			}
			k := KeyOf(o)
			if got := k.Octant(); got != o {
				t.Fatalf("dim %d: round trip %v -> %v -> %v", dim, o, k, got)
			}
			if k.Level() != o.Level || k.Dim() != o.Dim {
				t.Fatalf("dim %d: key %v level/dim = %d/%d, want %d/%d",
					dim, o, k.Level(), k.Dim(), o.Level, o.Dim)
			}
			if _, ok := KeyFromBits(k.Hi, k.Lo); !ok {
				t.Fatalf("dim %d: KeyOf(%v) fails KeyFromBits validity", dim, o)
			}
		}
	}
}

// TestKeyCompareAgrees pins the tentpole invariant: KeyCompare on packed
// keys equals the sign of Compare on the unpacked octants for every pair in
// the lattice, including out-of-root octants and MaxLevel corners.
func TestKeyCompareAgrees(t *testing.T) {
	for _, dim := range []int{2, 3} {
		lat := keyLattice(dim)
		keys := make([]Key, len(lat))
		for i, o := range lat {
			keys[i] = KeyOf(o)
		}
		for i, a := range lat {
			for j, b := range lat {
				want := sign(Compare(a, b))
				if got := sign(KeyCompare(keys[i], keys[j])); got != want {
					t.Fatalf("dim %d: KeyCompare(%v, %v) sign = %d, Compare sign = %d",
						dim, a, b, got, want)
				}
				if KeyLess(keys[i], keys[j]) != (want < 0) {
					t.Fatalf("dim %d: KeyLess(%v, %v) disagrees with Compare", dim, a, b)
				}
			}
		}
	}
}

// TestKeyRelations checks every packed-key Table I kernel against its
// struct counterpart across the lattice.
func TestKeyRelations(t *testing.T) {
	for _, dim := range []int{2, 3} {
		dirs := Directions(dim, dim)
		for _, o := range keyLattice(dim) {
			k := KeyOf(o)
			if o.Level > 0 {
				checkKeyOctant(t, k.Parent(), o.Parent())
				if k.ChildID() != o.ChildID() {
					t.Fatalf("dim %d: ChildID(%v) = %d, want %d", dim, o, k.ChildID(), o.ChildID())
				}
				for i := 0; i < NumChildren(dim); i++ {
					checkKeyOctant(t, k.Sibling(i), o.Sibling(i))
				}
			}
			if o.Level < MaxLevel {
				for i := 0; i < NumChildren(dim); i++ {
					checkKeyOctant(t, k.Child(i), o.Child(i))
				}
			}
			for l := int8(0); l <= o.Level; l++ {
				checkKeyOctant(t, k.Ancestor(l), o.Ancestor(l))
			}
			for l := o.Level; l <= MaxLevel; l++ {
				checkKeyOctant(t, k.FirstDescendant(l), o.FirstDescendant(l))
				checkKeyOctant(t, k.LastDescendant(l), o.LastDescendant(l))
			}
			for _, d := range dirs {
				checkKeyOctant(t, k.Neighbor(d), o.Neighbor(d))
			}
			if o.InsideRoot() && o != Root(dim).LastDescendant(o.Level) {
				checkKeyOctant(t, k.Successor(), o.Successor())
			}
		}
	}
}

func TestKeyPairRelations(t *testing.T) {
	for _, dim := range []int{2, 3} {
		lat := keyLattice(dim)
		// All-pairs is quadratic; subsample one side to keep it fast.
		for i := 0; i < len(lat); i += 3 {
			a := lat[i]
			ka := KeyOf(a)
			for _, b := range lat {
				kb := KeyOf(b)
				if got, want := ka.IsAncestorOrEqual(kb), a.IsAncestorOrEqual(b); got != want {
					t.Fatalf("dim %d: key IsAncestorOrEqual(%v, %v) = %v, want %v", dim, a, b, got, want)
				}
				if got, want := ka.IsAncestor(kb), a.IsAncestor(b); got != want {
					t.Fatalf("dim %d: key IsAncestor(%v, %v) = %v, want %v", dim, a, b, got, want)
				}
				if got, want := KeyPrecluded(ka, kb), Precluded(a, b); got != want {
					t.Fatalf("dim %d: KeyPrecluded(%v, %v) = %v, want %v", dim, a, b, got, want)
				}
				if got, want := KeyPrecludedEqual(ka, kb), PrecludedEqual(a, b); got != want {
					t.Fatalf("dim %d: KeyPrecludedEqual(%v, %v) = %v, want %v", dim, a, b, got, want)
				}
				if a.InsideRoot() && b.InsideRoot() {
					checkKeyOctant(t, NearestCommonAncestorKeys(ka, kb), NearestCommonAncestor(a, b))
				}
			}
		}
	}
}

// TestCompareOutOfRootSign is the regression suite for the sign-handling
// bug: XOR of negative coordinates used to put the raw two's-complement
// sign bit at the top of the "most significant differing bit" race, so an
// out-of-root octant left of the root compared ABOVE the in-root octants
// it must precede on the curve.
func TestCompareOutOfRootSign(t *testing.T) {
	for _, dim := range []int{2, 3} {
		h := Len(1)
		left := Octant{X: -h, Level: 1, Dim: int8(dim)}
		first := Octant{Level: 1, Dim: int8(dim)}
		if Compare(left, first) >= 0 {
			t.Errorf("dim %d: out-of-root %v must precede in-root %v", dim, left, first)
		}
		if KeyCompare(KeyOf(left), KeyOf(first)) >= 0 {
			t.Errorf("dim %d: KeyCompare(%v, %v) must be negative", dim, left, first)
		}
		// The same seeds on the y (and z) axes.
		down := Octant{Y: -h, Level: 1, Dim: int8(dim)}
		if Compare(down, first) >= 0 {
			t.Errorf("dim %d: out-of-root %v must precede in-root %v", dim, down, first)
		}
		if dim == 3 {
			back := Octant{Z: -h, Level: 1, Dim: 3}
			if Compare(back, first) >= 0 {
				t.Errorf("out-of-root %v must precede in-root %v", back, first)
			}
		}
		// Beyond the far face: strictly after the last in-root octant.
		right := Octant{X: RootLen, Level: 1, Dim: int8(dim)}
		last := Root(dim).LastDescendant(1)
		if Compare(right, last) <= 0 {
			t.Errorf("dim %d: out-of-root %v must follow in-root %v", dim, right, last)
		}
	}
}

// TestCompareAxisMonotone pins the property the raw-bit comparison
// violated: with all other coordinates fixed, increasing one coordinate
// strictly increases the curve position — including across the sign
// boundary at zero.
func TestCompareAxisMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{2, 3} {
		for _, l := range []int8{1, 2, 5, 15, 30} {
			h := Len(l)
			for trial := 0; trial < 50; trial++ {
				o := Octant{Level: l, Dim: int8(dim)}
				o.Y = int32(rng.Int63n(int64(RootLen))) &^ (h - 1)
				if dim == 3 {
					o.Z = int32(rng.Int63n(int64(RootLen))) &^ (h - 1)
				}
				for axis := 0; axis < dim; axis++ {
					// Walk the axis across the negative/positive boundary.
					prev := o
					for i := int32(-2); i <= 2; i++ {
						cur := o.WithCoord(axis, i*h)
						if i > -2 {
							if Compare(prev, cur) >= 0 {
								t.Fatalf("dim %d level %d: %v must precede %v", dim, l, prev, cur)
							}
							if !KeyLess(KeyOf(prev), KeyOf(cur)) {
								t.Fatalf("dim %d level %d: key order %v vs %v", dim, l, prev, cur)
							}
						}
						prev = cur
					}
				}
			}
		}
	}
}

func TestKeySuccessorPanicsPastEnd(t *testing.T) {
	for _, dim := range []int{2, 3} {
		last := KeyOf(Root(dim).LastDescendant(3))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dim %d: Successor past end of level must panic", dim)
				}
			}()
			last.Successor()
		}()
	}
}

func TestKeyFromBitsRejectsMalformed(t *testing.T) {
	cases := []struct{ hi, lo uint64 }{
		{0, 0},                // dim 0: the zero Key, which hash sets of keys use as their empty slot
		{0, 5 << 8},           // dim 5
		{0, 2<<8 | 31},        // level 31
		{0, 2<<8 | 0xff},      // negative level byte
		{0, 2<<8 | 1<<16 | 3}, // reserved bits set (2D)
		{0, 3<<8 | 1<<20 | 3}, // reserved bits set (3D)
		{1, 2<<8 | 0},         // unaligned: interleave bit below the grid
		{0, 3<<8 | 1<<32 | 2}, // unaligned 3D low word
		{1, 3<<8 | 0},         // unaligned 3D high word at level 0
	}
	for _, c := range cases {
		if _, ok := KeyFromBits(c.hi, c.lo); ok {
			t.Errorf("KeyFromBits(%#x, %#x) accepted malformed key", c.hi, c.lo)
		}
	}
	for _, dim := range []int{2, 3} {
		for _, o := range keyLattice(dim) {
			k := KeyOf(o)
			if got, ok := KeyFromBits(k.Hi, k.Lo); !ok || got != k {
				t.Errorf("KeyFromBits rejects valid key %v of %v", k, o)
			}
		}
	}
}

func TestAppendKeysRoundTrip(t *testing.T) {
	for _, dim := range []int{2, 3} {
		lat := keyLattice(dim)
		keys := AppendKeys(nil, lat)
		back := AppendOctants(nil, keys)
		if len(back) != len(lat) {
			t.Fatalf("length mismatch")
		}
		for i := range lat {
			if back[i] != lat[i] {
				t.Fatalf("dim %d: AppendKeys/AppendOctants round trip broke at %d: %v != %v",
					dim, i, back[i], lat[i])
			}
		}
	}
}
