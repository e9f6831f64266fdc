package octant

// This file is the batch layer over the packed Morton key: helpers that
// hoist the per-key split/mask/shift setup out of inner loops so callers
// can process whole direction fans, child sets or successor runs with a
// handful of word operations per element (Kirilin & Burstedde 2023 style).
// Every function here is a pure rearrangement of the scalar relations in
// key.go — the property tests pin each one to its scalar twin.

// insideRoot2/3 select the interleave bits that encode the top two bits of
// every sign-shifted coordinate.  A coordinate x is inside [0, RootLen)
// exactly when its shifted form u = x ^ 2^31 has bit 31 set (x >= 0) and
// bit 30 clear (x < 2^30 = RootLen); anchors are grid aligned, so an
// in-root anchor implies the whole cube is in the root.  In 2D the Hi word
// is the full interleave (coordinate bit b of axis a at 2b+a); in 3D Hi
// holds interleave bits 32..95 (coordinate bit b of axis a at 3b+a), so
// the coordinate bits 31 land at Hi bits 61..63 and bits 30 at 58..60.
const (
	insideRootMask2 = uint64(0xF) << 60
	insideRootWant2 = uint64(0xC) << 60
	insideRootMask3 = uint64(0x3F) << 58
	insideRootWant3 = uint64(0x38) << 58
)

// InsideRoot reports whether k lies entirely inside the root octant, with
// two word operations and no unpacking — the fast path that lets packed-key
// traversals skip Canonicalize for interior cells (Canonicalize is the
// identity on in-root octants).
func (k Key) InsideRoot() bool {
	if k.Dim() == 2 {
		return k.Hi&insideRootMask2 == insideRootWant2
	}
	return k.Hi&insideRootMask3 == insideRootWant3
}

// KeyChildren writes the children of k into out in child order and returns
// their count.  The split/level bookkeeping runs once for the whole family
// instead of once per Child call.
func KeyChildren(k Key, out *[8]Key) int {
	lv := k.Level()
	if lv >= MaxLevel {
		panic("octant: cannot refine beyond MaxLevel")
	}
	dim := k.Dim()
	n := 1 << uint(dim)
	h, l := k.split()
	b := uint(dim) * uint(MaxLevel-int(lv)-1)
	if b >= 64 {
		for i := 0; i < n; i++ {
			out[i] = k.withSplit(h|uint64(i)<<(b-64), l, lv+1)
		}
	} else {
		for i := 0; i < n; i++ {
			out[i] = k.withSplit(h|uint64(i)>>(64-b), l|uint64(i)<<b, lv+1)
		}
	}
	return n
}

// KeyNeighbors computes k.Neighbor(d) for every d in dirs, writing the
// results into out (which must have len(out) >= len(dirs)).  The interleave
// split, grid position and per-axis mask/unit words are computed once and
// reused across the whole direction fan — the insulation-grid batch kernel
// behind the packed-key ghost/query prunables (a 3^d-1 fan per tree node).
func KeyNeighbors(k Key, dirs []Dir, out []Key) {
	h0, l0 := k.split()
	dim := uint(k.Dim())
	lv := k.Level()
	b := uint(dim) * uint(MaxLevel-int(lv))
	var mh, ml, uh, ul [3]uint64
	for a := uint(0); a < dim; a++ {
		if dim == 2 {
			ml[a] = 0x5555555555555555 << a
		} else {
			ml[a] = axisMasks3[a]
			mh[a] = axisMasks3[(a+2)%3]
		}
		if pos := b + a; pos >= 64 {
			uh[a] = 1 << (pos - 64)
		} else {
			ul[a] = 1 << pos
		}
	}
	for di, d := range dirs {
		h, l := h0, l0
		for a := uint(0); a < dim; a++ {
			if d[a] != 0 {
				h, l = maskedStep(h, l, mh[a], ml[a], uh[a], ul[a], d[a])
			}
		}
		out[di] = k.withSplit(h, l, lv)
	}
}

// AppendKeySuccessors appends the run k, k.Successor(), ... of n same-level
// keys to dst and returns the extended slice.  The carry add (the
// packed-key Carry3) runs on the hoisted interleave pair, so a uniform run
// costs one add and one repack per key.  It panics if the run would step
// past the end of k's level.
func AppendKeySuccessors(dst []Key, k Key, n int) []Key {
	if n <= 0 {
		return dst
	}
	dst = append(dst, k)
	h, l := k.split()
	lv := k.Level()
	b := k.gridBits()
	hm, lm := rangeMask(b, uint(k.Dim())*MaxLevel)
	for i := 1; i < n; i++ {
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
		dst = append(dst, k.withSplit(h, l, lv))
	}
	return dst
}

// KeysAreFamily reports whether ks is exactly one complete sibling family
// in child order — the key twin of IsFamily: ks[i] must equal
// parent.Child(i) for every i.  The family digit test runs on the shared
// interleave of ks[0], so no key is unpacked.
func KeysAreFamily(ks []Key) bool {
	if len(ks) == 0 {
		return false
	}
	k0 := ks[0]
	lv := k0.Level()
	if lv == 0 {
		return false
	}
	dim := k0.Dim()
	if len(ks) != 1<<uint(dim) || k0.ChildID() != 0 {
		return false
	}
	h, l := k0.split()
	b := uint(dim) * uint(MaxLevel-int(lv))
	for i := 1; i < len(ks); i++ {
		var want Key
		if b >= 64 {
			want = k0.withSplit(h|uint64(i)<<(b-64), l, lv)
		} else {
			want = k0.withSplit(h|uint64(i)>>(64-b), l|uint64(i)<<b, lv)
		}
		if ks[i] != want {
			return false
		}
	}
	return true
}
