package octant

// This file implements spatial neighborhood constructions: directional
// neighbors, the coarse neighborhood N(o) of the subtree balance algorithms
// (Figure 5), and the insulation layer I(o) of Section II-B.

// Dir is a neighbor direction: each component is -1, 0 or +1.  The number
// of nonzero components is the codimension of the boundary object shared
// with a neighbor in that direction (1 = face, 2 = edge in 3D / corner in
// 2D, 3 = corner in 3D).
type Dir [3]int8

// Codim returns the number of nonzero components of d.
func (d Dir) Codim() int {
	n := 0
	for _, c := range d {
		if c != 0 {
			n++
		}
	}
	return n
}

// Directions returns all directions in dim dimensions whose codimension is
// between 1 and maxCodim inclusive, i.e. the neighbor directions relevant
// to maxCodim-balance.  The result is deterministic.  It is a shared
// precomputed table: callers must treat it as read-only.
func Directions(dim, maxCodim int) []Dir {
	if dim != 2 && dim != 3 {
		panic("octant: invalid dimension")
	}
	if maxCodim < 1 || maxCodim > dim {
		panic("octant: invalid balance codimension")
	}
	return dirTable[dim][maxCodim]
}

// dirTable[dim][maxCodim] holds the direction sets of Directions, built
// once: the hot callers (seed construction, coarse neighborhoods) ask for
// the same few sets millions of times.
var dirTable = func() (t [4][4][]Dir) {
	for dim := 2; dim <= 3; dim++ {
		for k := 1; k <= dim; k++ {
			t[dim][k] = buildDirections(dim, k)
		}
	}
	return t
}()

func buildDirections(dim, maxCodim int) []Dir {
	var dirs []Dir
	zmax := int8(0)
	if dim == 3 {
		zmax = 1
	}
	for dz := -zmax; dz <= zmax; dz++ {
		for dy := int8(-1); dy <= 1; dy++ {
			for dx := int8(-1); dx <= 1; dx++ {
				d := Dir{dx, dy, dz}
				c := d.Codim()
				if c >= 1 && c <= maxCodim {
					dirs = append(dirs, d)
				}
			}
		}
	}
	return dirs[:len(dirs):len(dirs)] // an append by a caller must copy, not grow the table
}

// Neighbor returns the octant of o's size adjacent to o in direction d.
// The result may lie outside the root octant.
func (o Octant) Neighbor(d Dir) Octant {
	h := o.Len()
	return Octant{
		X:     o.X + int32(d[0])*h,
		Y:     o.Y + int32(d[1])*h,
		Z:     o.Z + int32(d[2])*h,
		Level: o.Level,
		Dim:   o.Dim,
	}
}

// FaceNeighbor returns the same-size neighbor across face f.  Faces are
// numbered -x, +x, -y, +y, -z, +z = 0..5 as in p4est.
func (o Octant) FaceNeighbor(f int) Octant {
	var d Dir
	axis := f / 2
	if f%2 == 0 {
		d[axis] = -1
	} else {
		d[axis] = 1
	}
	return o.Neighbor(d)
}

// CoarseNeighborhood returns N(o) for the k-balance condition: the octants
// one level coarser than o (the size of o's parent) that share a boundary
// object of codimension at most k with parent(o).  Octants of N(o) may
// extend beyond the root octant; in a forest they then influence a
// neighboring tree (Figure 5).  The result does not include parent(o)
// itself.  Cardinalities: 2D k=1: 4, k=2: 8; 3D k=1: 6, k=2: 18, k=3: 26.
func (o Octant) CoarseNeighborhood(k int) []Octant {
	p := o.Parent()
	dirs := Directions(int(o.Dim), k)
	nb := make([]Octant, len(dirs))
	for i, d := range dirs {
		nb[i] = p.Neighbor(d)
	}
	return nb
}

// InsulationLayer returns I(o): the 3^d same-size octants surrounding and
// including o.  Two octants can be unbalanced only if one is contained in
// the other's insulation layer (Section II-B).  Octants of I(o) may extend
// beyond the root.
func (o Octant) InsulationLayer() []Octant {
	dim := int(o.Dim)
	layer := make([]Octant, 0, pow3(dim))
	layer = append(layer, o)
	for _, d := range Directions(dim, dim) {
		layer = append(layer, o.Neighbor(d))
	}
	return layer
}

func pow3(d int) int {
	n := 1
	for i := 0; i < d; i++ {
		n *= 3
	}
	return n
}

// Adjacency classifies the spatial relation of two octants' closed cubes.
// It returns:
//
//	-1 if the closures are disjoint,
//	 0 if the open cubes intersect (one octant overlaps the other),
//	 c in 1..dim if the closures intersect exactly in a boundary object
//	   of codimension c (1 = face, 2 = edge/2D-corner, 3 = 3D-corner).
func Adjacency(o, r Octant) int {
	ho, hr := o.Len(), r.Len()
	codim := 0
	for i := 0; i < int(o.Dim); i++ {
		ao, bo := int64(o.Coord(i)), int64(o.Coord(i))+int64(ho)
		ar, br := int64(r.Coord(i)), int64(r.Coord(i))+int64(hr)
		lo, hi := max64(ao, ar), min64(bo, br)
		switch {
		case lo > hi:
			return -1
		case lo == hi:
			codim++
		}
	}
	return codim
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Balanced reports whether octants o and r satisfy the k-balance condition
// pairwise: if their closures share a boundary object of codimension
// between 1 and k, their levels differ by at most one.  Overlapping or
// non-adjacent octants are trivially balanced.
func Balanced(o, r Octant, k int) bool {
	c := Adjacency(o, r)
	if c < 1 || c > k {
		return true
	}
	d := int(o.Level) - int(r.Level)
	return d >= -1 && d <= 1
}
