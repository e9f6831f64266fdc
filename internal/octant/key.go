package octant

// This file implements the packed Morton-key octant representation of
// Kirilin & Burstedde ("Alternative quadrant representations with Morton
// index", 2023) and Cornerstone-style octree codes: the interleaved
// coordinate bits plus the level in two machine words, so that the curve
// comparison of Section II-A is a plain integer compare and the Table I
// relations (parent, child, sibling, descendants) and the curve successor
// ("Carry3") become branch-poor bit arithmetic.
//
// Layout.  A coordinate is first mapped to the unsigned shifted domain
// ux = uint32(x) ^ 1<<31 — the monotone embedding of int32 into uint32 —
// so octants outside the root cube (negative coordinates) order correctly
// below in-root ones, by construction agreeing with the sign-handling fix
// in Compare/mortonDigit.  All 32 bits of each shifted coordinate are then
// bit-interleaved (x at interleave bit dim*b, y at dim*b+1, z at dim*b+2
// for coordinate bit b, matching child-id order), giving a 64-bit
// interleave in 2D and a 96-bit one in 3D; a single uint64 cannot hold the
// 3D case, hence the two-word Key.  The packing is
//
//	2D: Hi = interleave(ux, uy)            Lo = 2<<8 | level
//	3D: Hi = interleave(ux,uy,uz) >> 32    Lo = low32(interleave) << 32 | 3<<8 | level
//
// so that lexicographic (Hi, Lo) comparison is exactly the ancestors-first
// Morton order: the most significant differing interleave bit decides, and
// octants sharing a lower corner tie-break on the level byte (coarser
// first).  Lo bits 16..31 (3D) / 16..63 (2D) are reserved zero.  The zero
// Key has dimension 0 and is therefore the key of no octant.
type Key struct {
	Hi, Lo uint64
}

const keySignFlip = uint32(1) << 31

// KeyOf packs o into its Morton key.  All int32 coordinates round-trip,
// including out-of-root octants with negative coordinates.
func KeyOf(o Octant) Key {
	ux := uint32(o.X) ^ keySignFlip
	uy := uint32(o.Y) ^ keySignFlip
	if o.Dim == 2 {
		return Key{
			Hi: part1by1(ux) | part1by1(uy)<<1,
			Lo: 2<<8 | uint64(o.Level),
		}
	}
	uz := uint32(o.Z) ^ keySignFlip
	xh, xl := spread3(ux)
	yh, yl := spread3(uy)
	zh, zl := spread3(uz)
	l := xl | yl<<1 | zl<<2
	h := xh | yh<<1 | yl>>63 | zh<<2 | zl>>62
	return Key{Hi: h<<32 | l>>32, Lo: l<<32 | 3<<8 | uint64(o.Level)}
}

// Octant unpacks k back into the struct-of-coordinates representation.
func (k Key) Octant() Octant {
	if k.Dim() == 2 {
		return Octant{
			X:     int32(compact1by1(k.Hi) ^ keySignFlip),
			Y:     int32(compact1by1(k.Hi>>1) ^ keySignFlip),
			Level: k.Level(),
			Dim:   2,
		}
	}
	h, l := k.split()
	return Octant{
		X:     int32(unspread3(h, l) ^ keySignFlip),
		Y:     int32(unspread3(h>>1, l>>1|h<<63) ^ keySignFlip),
		Z:     int32(unspread3(h>>2, l>>2|h<<62) ^ keySignFlip),
		Level: k.Level(),
		Dim:   3,
	}
}

// Level returns the refinement level of k.
func (k Key) Level() int8 { return int8(k.Lo & 0xff) }

// Dim returns the dimension (2 or 3) of k.
func (k Key) Dim() int8 { return int8(k.Lo >> 8 & 0xff) }

// String renders the unpacked octant.
func (k Key) String() string { return k.Octant().String() }

// KeyCompare orders a and b by Morton order with ancestors first: the
// sign of the result matches Compare on the unpacked octants, but the
// whole decision is two word compares.
func KeyCompare(a, b Key) int {
	switch {
	case a.Hi != b.Hi:
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	case a.Lo != b.Lo:
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	}
	return 0
}

// KeyLess reports whether a strictly precedes b in Morton order.
func KeyLess(a, b Key) bool {
	return a.Hi < b.Hi || (a.Hi == b.Hi && a.Lo < b.Lo)
}

// split returns k's interleave as a 128-bit value (h, l): bit dim*b+axis
// of the pair is coordinate bit b of that axis in the shifted domain.
func (k Key) split() (h, l uint64) {
	if k.Dim() == 2 {
		return 0, k.Hi
	}
	return k.Hi >> 32, k.Hi<<32 | k.Lo>>32
}

// withSplit repacks an interleave pair and a level into a key of k's
// dimension.  Interleave bits at or above dim*32 are discarded, which is
// exactly coordinate wrap-around modulo 2^32.
func (k Key) withSplit(h, l uint64, lv int8) Key {
	if k.Dim() == 2 {
		return Key{Hi: l, Lo: 2<<8 | uint64(lv)}
	}
	return Key{Hi: h<<32 | l>>32, Lo: l<<32 | 3<<8 | uint64(lv)}
}

// gridBits returns the number of low interleave bits below k's own grid:
// dim * (MaxLevel - level).  A well-formed key has them all zero.
func (k Key) gridBits() uint {
	return uint(k.Dim()) * uint(MaxLevel-int(k.Level()))
}

// ones returns a uint64 with the n low bits set, n <= 64.
func ones(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<n - 1
}

// rangeMask returns the 128-bit mask with bits [lo, hi) set, hi <= 128.
func rangeMask(lo, hi uint) (hm, lm uint64) {
	if lo < 64 {
		top := hi
		if top > 64 {
			top = 64
		}
		lm = ones(top-lo) << lo
	}
	if hi > 64 {
		bot := uint(0)
		if lo > 64 {
			bot = lo - 64
		}
		hm = ones(hi-64-bot) << bot
	}
	return hm, lm
}

// Ancestor returns the ancestor of k at level lv <= Level: the low
// interleave bits below the coarser grid are cleared.
func (k Key) Ancestor(lv int8) Key {
	if lv > k.Level() || lv < 0 {
		panic("octant: invalid ancestor level")
	}
	h, l := k.split()
	n := uint(k.Dim()) * uint(MaxLevel-int(lv))
	if n >= 64 {
		l = 0
		h = h >> (n - 64) << (n - 64)
	} else {
		l = l >> n << n
	}
	return k.withSplit(h, l, lv)
}

// Parent returns the key of the containing octant one level coarser.  It
// panics if k is the root.
func (k Key) Parent() Key {
	lv := k.Level()
	if lv == 0 {
		panic("octant: root has no parent")
	}
	return k.Ancestor(lv - 1)
}

// ChildID returns i such that k == i-child(parent(k)): the interleave
// digit at k's own grid position.  The root's child id is 0.
func (k Key) ChildID() int {
	if k.Level() == 0 {
		return 0
	}
	h, l := k.split()
	b := k.gridBits()
	var d uint64
	if b >= 64 {
		d = h >> (b - 64)
	} else {
		d = l>>b | h<<(64-b)
	}
	return int(d & ones(uint(k.Dim())))
}

// Child returns the i-child of k.  It panics if k is at MaxLevel or i is
// out of range.
func (k Key) Child(i int) Key {
	lv := k.Level()
	if lv >= MaxLevel {
		panic("octant: cannot refine beyond MaxLevel")
	}
	dim := k.Dim()
	if i < 0 || i >= 1<<uint(dim) {
		panic("octant: child index out of range")
	}
	h, l := k.split()
	b := uint(dim) * uint(MaxLevel-int(lv)-1)
	if b >= 64 {
		h |= uint64(i) << (b - 64)
	} else {
		l |= uint64(i) << b
		h |= uint64(i) >> (64 - b)
	}
	return k.withSplit(h, l, lv+1)
}

// Sibling returns the i-sibling of k: i-child(parent(k)).
func (k Key) Sibling(i int) Key {
	if k.Level() == 0 {
		if i != 0 {
			panic("octant: root has no siblings")
		}
		return k
	}
	return k.Parent().Child(i)
}

// FirstDescendant returns the first descendant of k at level lv >= Level:
// only the level byte changes.
func (k Key) FirstDescendant(lv int8) Key {
	if lv < k.Level() || lv > MaxLevel {
		panic("octant: invalid descendant level")
	}
	return Key{Hi: k.Hi, Lo: k.Lo&^0xff | uint64(lv)}
}

// LastDescendant returns the last descendant of k at level lv >= Level:
// the interleave bits between the two grids are saturated.
func (k Key) LastDescendant(lv int8) Key {
	if lv < k.Level() || lv > MaxLevel {
		panic("octant: invalid descendant level")
	}
	h, l := k.split()
	dim := uint(k.Dim())
	hm, lm := rangeMask(dim*uint(MaxLevel-int(lv)), dim*uint(MaxLevel-int(k.Level())))
	return k.withSplit(h|hm, l|lm, lv)
}

// Successor returns the next key of the same level in Morton order: a
// single carry-propagating add on the interleave (the packed-key Carry3),
// replacing the struct representation's digit loop.  It panics when k is
// the last octant of its level in the root.
func (k Key) Successor() Key {
	h, l := k.split()
	b := k.gridBits()
	hm, lm := rangeMask(b, uint(k.Dim())*MaxLevel)
	if h&hm == hm && l&lm == lm {
		panic("octant: successor past end of level")
	}
	if b >= 64 {
		h += 1 << (b - 64)
	} else {
		nl := l + 1<<b
		if nl < l {
			h++
		}
		l = nl
	}
	return k.withSplit(h, l, k.Level())
}

// axisMasks3 selects the interleave bits of one axis: axisMasks3[j] has
// bits {i : i mod 3 == j} of a 64-bit word.  The low word of the 128-bit
// pair uses index a for axis a; the high word starts at global bit 64 and
// 64 mod 3 == 1, so it uses index (a+2) mod 3.
var axisMasks3 = [3]uint64{
	0x9249249249249249, // bits 0, 3, ..., 63
	0x2492492492492492, // bits 1, 4, ..., 61
	0x4924924924924924, // bits 2, 5, ..., 62
}

// maskedStep adds (dir > 0) or subtracts (dir < 0) the unit (uh, ul) to
// the masked bits of the interleave pair, leaving unmasked bits intact.
// The carry/borrow propagates through the mask gaps by the usual trick of
// saturating (add) or clearing (subtract) the unmasked bits first, so one
// machine add moves a whole coordinate by an octant length.
func maskedStep(h, l, mh, ml, uh, ul uint64, dir int8) (uint64, uint64) {
	var th, tl uint64
	if dir > 0 {
		var c uint64
		tl = l | ^ml
		if tl+ul < tl {
			c = 1
		}
		tl += ul
		th = (h | ^mh) + uh + c
	} else {
		var bw uint64
		tl = l & ml
		if tl < ul {
			bw = 1
		}
		tl -= ul
		th = h&mh - uh - bw
	}
	return th&mh | h&^mh, tl&ml | l&^ml
}

// Neighbor returns the key of the same-size octant adjacent to k in
// direction d, computed by one masked add or subtract per nonzero
// component.  The result may lie outside the root octant.
func (k Key) Neighbor(d Dir) Key {
	h, l := k.split()
	dim := uint(k.Dim())
	b := k.gridBits()
	for a := uint(0); a < dim; a++ {
		if d[a] == 0 {
			continue
		}
		var mh, ml uint64
		if dim == 2 {
			ml = 0x5555555555555555 << a
		} else {
			ml = axisMasks3[a]
			mh = axisMasks3[(a+2)%3]
		}
		pos := b + a
		var uh, ul uint64
		if pos >= 64 {
			uh = 1 << (pos - 64)
		} else {
			ul = 1 << pos
		}
		h, l = maskedStep(h, l, mh, ml, uh, ul, d[a])
	}
	return k.withSplit(h, l, k.Level())
}

// IsAncestorOrEqual reports whether k is an ancestor of r or equal to r:
// r's interleave truncated to k's grid must match k's.
func (k Key) IsAncestorOrEqual(r Key) bool {
	if k.Level() > r.Level() {
		return false
	}
	h, l := k.split()
	rh, rl := r.split()
	n := k.gridBits()
	if n >= 64 {
		return rh>>(n-64)<<(n-64) == h && l == 0
	}
	return rh == h && rl>>n<<n == l
}

// IsAncestor reports whether k is a strict ancestor of r.
func (k Key) IsAncestor(r Key) bool {
	return k.Level() < r.Level() && k.IsAncestorOrEqual(r)
}

// NearestCommonAncestorKeys returns the key of the finest octant
// containing both a and b.  Like the struct NearestCommonAncestor it
// requires the inputs to lie inside a common root: a difference in the
// out-of-root coordinate bits would demand a negative level, which panics.
func NearestCommonAncestorKeys(a, b Key) Key {
	lv := a.Level()
	if r := b.Level(); r < lv {
		lv = r
	}
	ah, al := a.split()
	bh, bl := b.split()
	xh, xl := ah^bh, al^bl
	if xh|xl != 0 {
		var g uint
		if xh != 0 {
			g = 64 + uint(63-leadingZeros64(xh))
		} else {
			g = uint(63 - leadingZeros64(xl))
		}
		lb := int8(MaxLevel - 1 - int(g/uint(a.Dim())))
		if lb < lv {
			lv = lb
		}
	}
	return a.Ancestor(lv)
}

// leadingZeros64 is bits.LeadingZeros64 without the import, so the octant
// package keeps its dependency-free core.
func leadingZeros64(v uint64) int {
	n := 0
	if v>>32 == 0 {
		n += 32
		v <<= 32
	}
	if v>>48 == 0 {
		n += 16
		v <<= 16
	}
	if v>>56 == 0 {
		n += 8
		v <<= 8
	}
	if v>>60 == 0 {
		n += 4
		v <<= 4
	}
	if v>>62 == 0 {
		n += 2
		v <<= 2
	}
	if v>>63 == 0 {
		n++
	}
	return n
}

// KeyPrecluded mirrors Precluded on keys: r ≺ k iff parent(r) is a strict
// ancestor of parent(k).
func KeyPrecluded(r, k Key) bool {
	if k.Level() == 0 {
		return false
	}
	if r.Level() == 0 {
		return k.Level() >= 2
	}
	if r.Level() >= k.Level() {
		return false
	}
	return r.Parent().IsAncestor(k.Parent())
}

// KeyPrecludedEqual mirrors PrecludedEqual on keys: parent(r) is an
// ancestor of, or equal to, parent(k).
func KeyPrecludedEqual(r, k Key) bool {
	if k.Level() == 0 || r.Level() == 0 {
		return r.Level() == 0 && (k.Level() >= 2 || k.Level() == r.Level())
	}
	return r.Parent().IsAncestorOrEqual(k.Parent())
}

// KeyFromBits reassembles a key from raw words and reports whether it is
// well-formed: a valid dimension and level, reserved bits zero, and the
// interleave aligned to the key's own grid.  Fuzzers use it to drive the
// decode path with arbitrary inputs.
func KeyFromBits(hi, lo uint64) (Key, bool) {
	k := Key{Hi: hi, Lo: lo}
	dim, lv := k.Dim(), k.Level()
	if dim != 2 && dim != 3 {
		return Key{}, false
	}
	if lv < 0 || lv > MaxLevel {
		return Key{}, false
	}
	if dim == 2 {
		if lo>>16 != 0 {
			return Key{}, false
		}
	} else if lo>>16&0xffff != 0 {
		return Key{}, false
	}
	h, l := k.split()
	n := k.gridBits()
	if n >= 64 {
		if l != 0 || h<<(128-n) != 0 {
			return Key{}, false
		}
	} else if n > 0 && l<<(64-n) != 0 {
		return Key{}, false
	}
	return k, true
}

// AppendKeys appends the keys of src to dst and returns it.
func AppendKeys(dst []Key, src []Octant) []Key {
	for _, o := range src {
		dst = append(dst, KeyOf(o))
	}
	return dst
}

// AppendOctants appends the unpacked octants of src to dst and returns it.
func AppendOctants(dst []Octant, src []Key) []Octant {
	for _, k := range src {
		dst = append(dst, k.Octant())
	}
	return dst
}

// part1by1 spreads the 32 bits of v to the even bit positions of a uint64.
func part1by1(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact1by1 inverts part1by1: it gathers the even bit positions of x
// into a uint32.
func compact1by1(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// part1by2 spreads the low 21 bits of v to every third bit of a uint64.
func part1by2(v uint64) uint64 {
	x := v & 0x1fffff
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact1by2 inverts part1by2: it gathers every third bit of x into the
// low 21 bits.
func compact1by2(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x001f0000ff0000ff
	x = (x | x>>16) & 0x001f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return x
}

// spread3 interleaves the 32 bits of v with two zero bits each: bit b of v
// lands at bit 3b of the 128-bit pair (h, l).
func spread3(v uint32) (h, l uint64) {
	l = part1by2(uint64(v)) | uint64(v>>21&1)<<63
	h = part1by2(uint64(v)>>22) << 2
	return h, l
}

// unspread3 inverts spread3.
func unspread3(h, l uint64) uint32 {
	v := compact1by2(l)
	v |= l >> 63 << 21
	v |= compact1by2(h>>2) << 22
	return uint32(v)
}
