package balance

import (
	"repro/internal/linear"
	"repro/internal/octant"
)

// SubtreeNewKeys is the new subtree balance algorithm (Figure 7) operating
// natively on packed Morton keys: Reduce, coarse-neighborhood closure with
// preclusion tagging, and completion all run in the key domain, so the hot
// loop is bit arithmetic plus two-word compares and no coordinate structs
// are materialized.  The output set is identical to SubtreeNew's on the
// unpacked octants — the differential suite pins this.
func SubtreeNewKeys(root octant.Key, S []octant.Key, k int) []octant.Key {
	if len(S) == 0 || (len(S) == 1 && S[0] == root) {
		return []octant.Key{root}
	}
	outward := outwardDirections(int(root.Dim()), k)

	R := linear.ReduceKeys(S)
	c := closure{
		R:     R,
		precR: make([]bool, len(R)),
		rnew:  newKeySet(len(R)),
		work:  append(make([]octant.Key, 0, 2*len(R)), R...),
	}

	// The closure adds octants under preclusion, where every member of a
	// sibling family stands for its 0-sibling.  The 3^d-1 octants of N(o)
	// lie in at most 2^d families: that of p = parent(o) itself and those of
	// the neighbors of g = parent(p) on the side of g that p touches.  Only
	// those distinct families are visited, not the directions that reach
	// them.
	rootLevel := root.Level()
	for len(c.work) > 0 {
		o := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		if o.Level() < rootLevel+2 {
			continue // coarse neighborhood would leave the subtree
		}
		p := o.Parent()
		g := p.Parent()
		// p's own family is the one family of N(o) that o precludes: g is
		// the only parent among them that is an ancestor of p.
		c.visit(g.Child(0), true)
		for _, d := range outward[p.ChildID()] {
			gn := g.Neighbor(d)
			if root.IsAncestorOrEqual(gn) {
				c.visit(gn.Child(0), false)
			}
		}
	}

	final := make([]octant.Key, 0, len(R)+c.rnew.n)
	for i, o := range R {
		if !c.precR[i] {
			final = append(final, o)
		}
	}
	final = c.rnew.appendUnflagged(final)
	linear.SortKeys(final)
	// New octants added at different times can overlap; keep the finest,
	// whose completion regenerates the coarser ones.
	final = linear.LinearizeKeys(final)
	return linear.CompleteKeys(root, final)
}

// closure is the state of the coarse-neighborhood closure: the reduced
// input R with its preclusion flags, the octants added so far (Rnew) with
// theirs, and the worklist of octants whose neighborhood is still to visit.
type closure struct {
	R     []octant.Key
	precR []bool // parallel to R
	rnew  keySet
	work  []octant.Key
}

// visit makes the 0-sibling s a member of R ∪ Rnew and, if precluded is
// set, tags it precluded.  A member of R that s precludes is tagged too.
func (c *closure) visit(s octant.Key, precluded bool) {
	slot := c.rnew.find(s)
	if slot < 0 {
		if i, ok := linear.PrecludingMemberKeys(c.R, s); ok {
			if c.R[i] == s {
				if precluded {
					c.precR[i] = true
				}
				return
			}
			// R[i] ⪯ s and both are 0-siblings of different families, so
			// the input octant R[i] is precluded by the new octant s.
			c.precR[i] = true
		}
		slot = c.rnew.add(s)
		c.work = append(c.work, s)
	}
	if precluded {
		c.rnew.prec[slot] = true
	}
}

// outwardDirections returns, per child id c, the directions of codimension
// 1..k whose every nonzero component points away from the parent's center
// as seen from its c-child: +1 on axis a if bit a of c is set, -1 if not.
// The neighbors of parent(p) in these directions, plus parent(p) itself,
// are exactly the parents of the same-size neighbors of p that k-balance
// looks at.  It panics on an invalid dim or k, as octant.Directions does.
func outwardDirections(dim, k int) *[8][]octant.Dir {
	octant.Directions(dim, k)
	return &outwardTable[dim][k]
}

// outwardTable[dim][k][c] is built once, like octant's direction table.
var outwardTable = func() (t [4][4][8][]octant.Dir) {
	for dim := 2; dim <= 3; dim++ {
		for k := 1; k <= dim; k++ {
			for c := 0; c < octant.NumChildren(dim); c++ {
				for _, d := range octant.Directions(dim, k) {
					out := true
					for a := 0; a < dim; a++ {
						out = out && (d[a] == 0 || d[a] > 0 == (c>>uint(a)&1 == 1))
					}
					if out {
						t[dim][k][c] = append(t[dim][k][c], d)
					}
				}
			}
		}
	}
	return t
}()
