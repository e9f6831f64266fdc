package forest

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/octant"
)

// Pos is a global position on the forest's space-filling curve: a tree id
// and a lattice anchor (the first corner of a MaxLevel cell).  Positions
// order first by tree, then by Morton order of the anchor.  The partition
// of the forest is described by one Pos per rank (the first position owned
// by that rank), exactly like p4est's global_first_position array.
type Pos struct {
	Tree    int32
	X, Y, Z int32
}

// PosOf returns the global position of octant o in tree t (the position of
// o's first corner).
func PosOf(t int32, o octant.Octant) Pos {
	return Pos{Tree: t, X: o.X, Y: o.Y, Z: o.Z}
}

// PosOfKey returns the global position of the leaf with packed key k in
// tree t.
func PosOfKey(t int32, k octant.Key) Pos {
	return PosOf(t, k.Octant())
}

// anchor returns the MaxLevel octant at p's coordinates.
func (p Pos) anchor(dim int) octant.Octant {
	return octant.Octant{X: p.X, Y: p.Y, Z: p.Z, Level: octant.MaxLevel, Dim: int8(dim)}
}

// ComparePos orders positions along the global space-filling curve.
func ComparePos(a, b Pos, dim int) int {
	if a.Tree != b.Tree {
		return int(a.Tree) - int(b.Tree)
	}
	return octant.Compare(a.anchor(dim), b.anchor(dim))
}

// TreeChunk is the local storage for one tree: a sorted linear array of the
// leaves this rank owns within that tree (a contiguous segment of the
// tree's space-filling curve).  Leaves are resident as packed Morton keys —
// the representation every balance, ghost, traversal, partition and
// checksum hot path operates on directly — and are materialized as octant
// structs only at true edges (on-disk io, VTK, mesh numbering) via Octants.
type TreeChunk struct {
	Tree   int32
	Leaves []octant.Key
}

// Octants materializes the chunk's leaves as octant structs, freshly
// allocated — the conversion edge for legacy struct-based consumers.  The
// resident representation stays the packed keys; mutate those, not the
// returned slice.
func (tc *TreeChunk) Octants() []octant.Octant {
	return octant.AppendOctants(make([]octant.Octant, 0, len(tc.Leaves)), tc.Leaves)
}

// Forest is one rank's view of a distributed forest of octrees.  All
// methods taking a *comm.Comm are collective: every rank of the world must
// call them in the same order.
type Forest struct {
	Conn *Connectivity

	// Local holds the chunks of trees this rank owns leaves in, in
	// ascending tree order.  Empty chunks are not stored.
	Local []TreeChunk

	// GFP are the global first positions: GFP[r] is the first position
	// owned by rank r and GFP[P] is the end sentinel.  Ranks may be
	// empty (GFP[r] == GFP[r+1]).
	GFP []Pos

	// NumGlobal is the global leaf count, maintained by the collective
	// operations.
	NumGlobal int64

	// Wire selects the payload encoding of every exchange of the forest:
	// Balance's queries, responses and notify pattern, the ghost layer and
	// the partition transfers.  The zero value is the legacy WireV0 format.
	// Results are bit-identical under every codec; only the byte volume
	// changes.
	Wire comm.WireCodec

	// Workers bounds the rank-local worker pool that the local stages fan
	// out over: Balance's per-tree subtree balance, boundary scan, query
	// responses and rebalance, and the ghost layer's boundary scan.  0 (the
	// zero value) splits the CPUs among the ranks this process hosts:
	// max(1, GOMAXPROCS / Comm.LocalRanks()) workers, so a single rank uses
	// every core and one rank per core runs serially.  1 runs serially on
	// the rank's own goroutine; n > 1 uses a pool of n goroutines; a
	// negative value uses one worker per available CPU.  Results are
	// bit-identical at every worker count.
	Workers int

	// otab caches the packed-key owner table derived from GFP; otabSrc and
	// otabLen detect wholesale GFP replacement (GFP is never mutated in
	// place).  See ownerTable.
	otab    *ownerTable
	otabSrc *Pos
	otabLen int
}

// NewUniform builds a forest uniformly refined to the given level,
// partitioned equally (by leaf count) across the ranks of c.  It is a
// collective call.
func NewUniform(conn *Connectivity, c *comm.Comm, level int) *Forest {
	if level < 0 || conn.dim*level > 62 {
		panic("forest: invalid uniform level")
	}
	perTree := int64(1) << uint(conn.dim*level)
	total := int64(conn.NumTrees()) * perTree
	p := int64(c.Size())
	rank := int64(c.Rank())
	lo := total * rank / p
	hi := total * (rank + 1) / p

	f := &Forest{Conn: conn, NumGlobal: total}
	for g := lo; g < hi; {
		t := int32(g / perTree)
		first := g % perTree
		last := perTree
		if remaining := hi - g; first+remaining < last {
			last = first + remaining
		}
		// One unpacked Morton-index seed, then a packed-key successor run:
		// the carry add on the hoisted interleave generates the whole
		// uniform streak without touching coordinates again.
		firstKey := octant.KeyOf(octant.FromMortonIndex(conn.dim, level, uint64(first)))
		leaves := octant.AppendKeySuccessors(make([]octant.Key, 0, last-first), firstKey, int(last-first))
		f.Local = append(f.Local, TreeChunk{Tree: t, Leaves: leaves})
		g += last - first
	}
	f.SyncGFP(c)
	return f
}

// NumLocal returns the number of leaves this rank owns.
func (f *Forest) NumLocal() int64 {
	var n int64
	for _, tc := range f.Local {
		n += int64(len(tc.Leaves))
	}
	return n
}

// FirstPos returns this rank's first owned position and true, or false if
// the rank is empty.
func (f *Forest) FirstPos() (Pos, bool) {
	if len(f.Local) == 0 {
		return Pos{}, false
	}
	tc := f.Local[0]
	return PosOfKey(tc.Tree, tc.Leaves[0]), true
}

// SyncGFP recomputes the global first positions and the global leaf count.
// Collective.  Ranks with no leaves inherit the next non-empty rank's
// position, preserving the invariant that GFP is non-decreasing.
func (f *Forest) SyncGFP(c *comm.Comm) {
	p := c.Size()
	dim := f.Conn.dim
	// Encode (hasLeaves, pos, count).
	var buf []byte
	pos, ok := f.FirstPos()
	flag := int32(0)
	if ok {
		flag = 1
	}
	buf = comm.AppendInt32(buf, flag)
	buf = appendPos(buf, pos)
	buf = comm.AppendInt64(buf, f.NumLocal())
	blocks := c.Allgatherv(buf)

	gfp := make([]Pos, p+1)
	var total int64
	end := endPos(f.Conn)
	next := end
	for r := p - 1; r >= 0; r-- {
		b := blocks[r]
		fl, off := comm.Int32At(b, 0)
		ps, off := posAt(b, off)
		n, _ := comm.Int64At(b, off)
		total += n
		if fl != 0 {
			next = ps
		}
		gfp[r] = next
	}
	gfp[p] = end
	// Sanity: non-decreasing.
	for r := 0; r < p; r++ {
		if ComparePos(gfp[r], gfp[r+1], dim) > 0 {
			panic("forest: global first positions out of order")
		}
	}
	f.GFP = gfp
	f.NumGlobal = total
	f.rebuildOwnerTable()
}

// endPos is the sentinel one past the last position of the forest.
func endPos(conn *Connectivity) Pos {
	return Pos{Tree: conn.NumTrees(), X: 0, Y: 0, Z: 0}
}

// ownerEntry is one GFP entry in key form: the tree id and the packed
// MaxLevel anchor key, so the partition binary search runs on two-word
// compares instead of unpacked coordinate tuples.
type ownerEntry struct {
	tree int32
	key  octant.Key
}

// ownerTable is the packed-key view of GFP.  KeyCompare agrees in sign
// with octant.Compare on MaxLevel anchors (the PR 9 invariant, pinned by
// the octant tests), so every lookup answers exactly as the Pos-based
// OwnerOf.
type ownerTable struct {
	entries []ownerEntry
}

// rebuildOwnerTable derives the packed-key owner table from GFP.  Called
// whenever the forest itself replaces GFP; ownerTable() rebuilds lazily
// for forests whose GFP was assigned directly (clones, restored
// snapshots, test literals).
func (f *Forest) rebuildOwnerTable() {
	dim := f.Conn.dim
	entries := make([]ownerEntry, len(f.GFP))
	for i, p := range f.GFP {
		entries[i] = ownerEntry{tree: p.Tree, key: octant.KeyOf(p.anchor(dim))}
	}
	f.otab = &ownerTable{entries: entries}
	f.otabSrc = nil
	f.otabLen = len(f.GFP)
	if len(f.GFP) > 0 {
		f.otabSrc = &f.GFP[0]
	}
}

// ownerTable returns the packed-key owner table for the current GFP,
// rebuilding it if GFP was replaced wholesale since the last build.  NOT
// goroutine-safe: collective entry points call it once before fanning out
// over the worker pool, and workers only read the returned table.
func (f *Forest) ownerTable() *ownerTable {
	if f.otab == nil || f.otabLen != len(f.GFP) ||
		(len(f.GFP) > 0 && f.otabSrc != &f.GFP[0]) {
		f.rebuildOwnerTable()
	}
	return f.otab
}

// ownerOfKey returns the rank owning the MaxLevel position key k in tree
// t: the last r with entries[r] <= (t, k).
func (ot *ownerTable) ownerOfKey(t int32, k octant.Key) int {
	lo, hi := 0, len(ot.entries)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		e := ot.entries[mid]
		if e.tree < t || (e.tree == t && !octant.KeyLess(k, e.key)) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ownersOfRegionKey returns the inclusive rank range whose partitions
// overlap the in-root region with packed key w in tree t — OwnersOfRegion
// without unpacking.
func (ot *ownerTable) ownersOfRegionKey(t int32, w octant.Key) (first, last int) {
	return ot.ownerOfKey(t, w.FirstDescendant(octant.MaxLevel)),
		ot.ownerOfKey(t, w.LastDescendant(octant.MaxLevel))
}

// ownsRegionKey reports whether rank me alone owns the in-root region w of
// tree t — ownersOfRegionKey(t, w) == (me, me).
func (ot *ownerTable) ownsRegionKey(me int, t int32, w octant.Key) bool {
	return ot.ownsRange(me, t, w.FirstDescendant(octant.MaxLevel), w.LastDescendant(octant.MaxLevel))
}

// ownsRange reports whether rank me alone owns the MaxLevel positions first
// through last of tree t, by comparing them against the rank's own two
// partition markers, with no search.
func (ot *ownerTable) ownsRange(me int, t int32, first, last octant.Key) bool {
	lo, hi := ot.entries[me], ot.entries[me+1]
	if t < lo.tree || (t == lo.tree && octant.KeyLess(first, lo.key)) {
		return false
	}
	return t < hi.tree || (t == hi.tree && octant.KeyLess(last, hi.key))
}

// OwnerOf returns the rank owning the given global position.
func (f *Forest) OwnerOf(p Pos) int {
	dim := f.Conn.dim
	lo, hi := 0, len(f.GFP)-1
	// Find the last r with GFP[r] <= p.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ComparePos(f.GFP[mid], p, dim) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// OwnersOfRegion returns the inclusive rank range whose partitions overlap
// octant region in tree t.
func (f *Forest) OwnersOfRegion(t int32, region octant.Octant) (first, last int) {
	fd := region.FirstDescendant(octant.MaxLevel)
	ld := region.LastDescendant(octant.MaxLevel)
	return f.OwnerOf(PosOf(t, fd)), f.OwnerOf(PosOf(t, ld))
}

// Refine refines local leaves recursively: fn is called for each leaf and
// may return true to split it; children are then reconsidered until fn
// declines or maxLevel is reached.  Refinement is local (no communication)
// and keeps the partition boundary positions unchanged, so GFP remains
// valid; only the global count must be refreshed, which is why Refine is
// still collective (it ends with an Allreduce).
func (f *Forest) Refine(c *comm.Comm, maxLevel int, fn func(tree int32, o octant.Octant) bool) {
	defer c.Tracer().Begin(c.Rank(), "refine", "forest").End()
	for i := range f.Local {
		tc := &f.Local[i]
		out := make([]octant.Key, 0, len(tc.Leaves))
		var rec func(k octant.Key)
		rec = func(k octant.Key) {
			if int(k.Level()) < maxLevel && fn(tc.Tree, k.Octant()) {
				var kids [8]octant.Key
				n := octant.KeyChildren(k, &kids)
				for ci := 0; ci < n; ci++ {
					rec(kids[ci])
				}
				return
			}
			out = append(out, k)
		}
		for _, k := range tc.Leaves {
			rec(k)
		}
		tc.Leaves = out
	}
	f.NumGlobal = c.AllreduceSumInt64(f.NumLocal())
}

// Coarsen replaces complete local families by their parent when fn approves
// of the family.  Families straddling a partition boundary are not
// coarsened (as in p4est, where Coarsen is usually preceded by Partition).
// Collective for the same reason as Refine; coarsening can change this
// rank's first position only if the first leaf is absorbed into a parent
// whose anchor it shares, which leaves the position unchanged, so GFP
// remains valid.
func (f *Forest) Coarsen(c *comm.Comm, fn func(tree int32, family []octant.Octant) bool) {
	defer c.Tracer().Begin(c.Rank(), "coarsen", "forest").End()
	nc := octant.NumChildren(f.Conn.dim)
	fam := make([]octant.Octant, 0, nc)
	for i := range f.Local {
		tc := &f.Local[i]
		for {
			out := make([]octant.Key, 0, len(tc.Leaves))
			changed := false
			j := 0
			for j < len(tc.Leaves) {
				// The structural family test runs entirely on the packed
				// keys; the octants materialize only for approved callbacks.
				if j+nc <= len(tc.Leaves) && octant.KeysAreFamily(tc.Leaves[j:j+nc]) {
					fam = octant.AppendOctants(fam[:0], tc.Leaves[j:j+nc])
					if fn(tc.Tree, fam) {
						out = append(out, tc.Leaves[j].Parent())
						j += nc
						changed = true
						continue
					}
				}
				out = append(out, tc.Leaves[j])
				j++
			}
			tc.Leaves = out
			if !changed {
				break
			}
		}
	}
	f.NumGlobal = c.AllreduceSumInt64(f.NumLocal())
}

// Validate checks structural invariants of the local forest state: chunks
// in ascending tree order, leaves sorted, linear, well-formed keys of the
// forest's dimension, and inside their root.
func (f *Forest) Validate() error {
	rootKey := octant.KeyOf(octant.Root(f.Conn.dim))
	for i, tc := range f.Local {
		if i > 0 && tc.Tree <= f.Local[i-1].Tree {
			return fmt.Errorf("forest: tree chunks out of order (%d after %d)", tc.Tree, f.Local[i-1].Tree)
		}
		if tc.Tree < 0 || tc.Tree >= f.Conn.NumTrees() {
			return fmt.Errorf("forest: invalid tree id %d", tc.Tree)
		}
		if len(tc.Leaves) == 0 {
			return fmt.Errorf("forest: empty chunk for tree %d", tc.Tree)
		}
		if !linear.IsLinearKeys(tc.Leaves) {
			return fmt.Errorf("forest: tree %d leaves not linear", tc.Tree)
		}
		for _, k := range tc.Leaves {
			if _, ok := octant.KeyFromBits(k.Hi, k.Lo); !ok {
				return fmt.Errorf("forest: tree %d leaf key %#x/%#x malformed", tc.Tree, k.Hi, k.Lo)
			}
			if int(k.Dim()) != f.Conn.dim {
				return fmt.Errorf("forest: tree %d leaf %v has dimension %d, want %d",
					tc.Tree, k.Octant(), k.Dim(), f.Conn.dim)
			}
			if !rootKey.IsAncestorOrEqual(k) {
				return fmt.Errorf("forest: tree %d leaf %v outside root", tc.Tree, k.Octant())
			}
		}
	}
	return nil
}

// chunkFor returns the chunk of tree t, or nil.
func (f *Forest) chunkFor(t int32) *TreeChunk {
	for i := range f.Local {
		if f.Local[i].Tree == t {
			return &f.Local[i]
		}
	}
	return nil
}
