package forest

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/notify"
	"repro/internal/octant"
	"repro/internal/traverse"
)

// GhostOctant is a remote leaf adjacent to the local partition, expressed
// in the canonical coordinates of its own tree.
type GhostOctant struct {
	Tree  int32
	Oct   octant.Octant
	Owner int
}

// GhostLayer is one layer of remote leaves around the local partition: for
// every local leaf, all remote leaves sharing a face, edge or corner with
// it are present.  This is the data structure numerical applications use to
// apply operators near partition boundaries, and a natural companion of the
// balance algorithm (on a balanced forest, ghost leaves differ by at most
// one level from their local neighbors).
type GhostLayer struct {
	// Octants are sorted by (tree, space-filling curve position).
	Octants []GhostOctant
}

// NumGhosts returns the number of ghost octants.
func (g *GhostLayer) NumGhosts() int { return len(g.Octants) }

// ByOwner groups the ghost octants by owning rank.
func (g *GhostLayer) ByOwner() map[int][]GhostOctant {
	m := make(map[int][]GhostOctant)
	for _, go_ := range g.Octants {
		m[go_.Owner] = append(m[go_.Owner], go_)
	}
	return m
}

// GhostSend is one entry of the ghost send schedule: local leaf Oct of tree
// Tree must reach rank Rank because Rank owns a region adjacent to it.
type GhostSend struct {
	Rank int
	Tree int32
	Oct  octant.Octant
}

func compareGhostSends(a, b GhostSend) int {
	switch {
	case a.Rank != b.Rank:
		return a.Rank - b.Rank
	case a.Tree != b.Tree:
		return int(a.Tree) - int(b.Tree)
	default:
		return octant.Compare(a.Oct, b.Oct)
	}
}

// ghostPrunable reports whether no leaf below virtual node w of tree t can
// contribute a ghost send: w's own region and every insulation cell of w
// are either outside the domain or owned entirely by rank me.  Soundness
// rests on the alignment of the lattice: a leaf's same-size neighbor lies
// entirely within exactly one cell of w's 3^d insulation grid (cube sides
// are powers of two dividing w's side, so no neighbor straddles a cell
// boundary), each cell canonicalizes to the same target tree as any of its
// subcubes, and the owner range of a subregion is contained in the owner
// range of its enclosing region.
//
// Like queryPrunable, the node and its insulation grid stay packed: the
// cell fan is the batch neighbor kernel and in-root cells (Canonicalize is
// the identity there) take the packed-key owner lookup directly.
func (f *Forest) ghostPrunable(ot *ownerTable, dirs []octant.Dir, buf []octant.Key, t int32, w octant.Key, me int) bool {
	if first, last := ot.ownersOfRegionKey(t, w); first != me || last != me {
		return false
	}
	octant.KeyNeighbors(w, dirs, buf)
	for _, cell := range buf[:len(dirs)] {
		if cell.InsideRoot() {
			if first, last := ot.ownersOfRegionKey(t, cell); first != me || last != me {
				return false
			}
			continue
		}
		ti, cell2, _, ok := f.Conn.Canonicalize(t, cell.Octant())
		if !ok {
			continue // outside the domain: no receiver there
		}
		if first, last := f.OwnersOfRegion(ti, cell2); first != me || last != me {
			return false
		}
	}
	return true
}

// GhostScan computes the full ghost send schedule of rank me by recursive
// simultaneous traversal (internal/traverse): each local tree chunk is
// descended top-down and subtrees whose entire insulation neighborhood is
// rank-local are pruned without touching their leaves, so the work is
// proportional to the partition boundary rather than the partition volume.
// The surviving leaves enumerate their canonicalized neighbor regions
// exactly as the classical per-leaf scan does; a final sort+compact
// replaces the per-rank hash dedup, making the schedule — sorted by (rank,
// tree, curve position) — bit-identical to the scan at any worker count.
// Top-level subtree tasks fan out over the rank-local worker pool when
// f.Workers asks for one.  Exported for the differential tests.
func (f *Forest) GhostScan(me int) ([]GhostSend, traverse.Stats) {
	dirs := octant.Directions(f.Conn.dim, f.Conn.dim)
	rootKey := octant.KeyOf(octant.Root(f.Conn.dim))
	ot := f.ownerTable() // warmed serially; workers only read it
	workers := f.localWorkers()
	maxTasks := 1
	if workers > 1 {
		maxTasks = 4 * workers
	}
	type ghostTask struct {
		tree   int32
		leaves []octant.Key
		t      traverse.TaskKeys
	}
	var tasks []ghostTask
	for _, tc := range f.Local {
		for _, t := range traverse.SplitTasksKeys(rootKey, tc.Leaves, maxTasks) {
			tasks = append(tasks, ghostTask{tree: tc.Tree, leaves: tc.Leaves, t: t})
		}
	}
	sends := make([][]GhostSend, len(tasks))
	stats := make([]traverse.Stats, len(tasks))
	parallelFor(workers, len(tasks), func(i int) {
		tk := tasks[i]
		var out []GhostSend
		buf := make([]octant.Key, len(dirs))
		traverse.SearchKeys(tk.t.Root, tk.leaves[tk.t.Lo:tk.t.Hi], func(w octant.Key, _, _ int, isLeaf bool) bool {
			if !isLeaf {
				return !f.ghostPrunable(ot, dirs, buf, tk.tree, w, me)
			}
			// The surviving leaf fans its insulation grid through the
			// batch neighbor kernel; it is unpacked (once) only if some
			// cell actually produces a send.
			var wo octant.Octant
			unpacked := false
			octant.KeyNeighbors(w, dirs, buf)
			for _, n := range buf[:len(dirs)] {
				var first, last int
				if n.InsideRoot() {
					first, last = ot.ownersOfRegionKey(tk.tree, n)
				} else {
					ti, n2, _, ok := f.Conn.Canonicalize(tk.tree, n.Octant())
					if !ok {
						continue
					}
					first, last = f.OwnersOfRegion(ti, n2)
				}
				for rank := first; rank <= last; rank++ {
					if rank == me {
						continue
					}
					if !unpacked {
						wo = w.Octant()
						unpacked = true
					}
					out = append(out, GhostSend{Rank: rank, Tree: tk.tree, Oct: wo})
				}
			}
			return true
		}, &stats[i])
		sends[i] = out
	})
	var all []GhostSend
	var st traverse.Stats
	for i := range tasks {
		all = append(all, sends[i]...)
		st.Merge(stats[i])
	}
	slices.SortFunc(all, compareGhostSends)
	all = slices.Compact(all)
	return all, st
}

const tagGhost = 102

// BuildGhost constructs the ghost layer collectively: every rank sends each
// of its boundary leaves to the owners of the regions adjacent to it, and
// keeps the received leaves that are adjacent to one of its own.  The send
// schedule comes from the recursive traversal (GhostScan); the asymmetric
// pattern is reversed with the Notify algorithm of Section V.
func (f *Forest) BuildGhost(c *comm.Comm) *GhostLayer {
	defer c.Tracer().Begin(c.Rank(), "ghost", "forest").End()
	sends, st := f.GhostScan(c.Rank())
	tr := c.Tracer()
	tr.Add(c.Rank(), "ghost/nodes", int64(st.Nodes))
	tr.Add(c.Rank(), "ghost/leaves", int64(st.Leaves))
	tr.Add(c.Rank(), "ghost/pruned", int64(st.Pruned))

	c.SetPhase("ghost")
	var receivers []int
	for i := 0; i < len(sends); {
		receivers = append(receivers, sends[i].Rank)
		j := i
		for j < len(sends) && sends[j].Rank == sends[i].Rank {
			j++
		}
		i = j
	}
	senders := notify.NotifyCodec(c, receivers, f.Wire)

	dim := int8(f.Conn.dim)
	for i := 0; i < len(sends); {
		j := i
		for j < len(sends) && sends[j].Rank == sends[i].Rank {
			j++
		}
		enc := wireEnc{b: comm.GetBuf(), codec: f.Wire, dim: dim}
		for _, s := range sends[i:j] {
			enc.tree(s.Tree)
			enc.oct(s.Oct)
		}
		c.AddRawBytes(enc.raw)
		c.Send(sends[i].Rank, tagGhost, enc.b)
		i = j
	}

	var ghosts []GhostOctant
	for _, rank := range senders {
		data := c.Recv(rank, tagGhost)
		d := wireDec{b: data, codec: f.Wire, dim: dim}
		for d.more() {
			t := d.tree()
			o := d.oct()
			if d.err != nil {
				break
			}
			if f.adjacentToLocal(t, o) {
				ghosts = append(ghosts, GhostOctant{Tree: t, Oct: o, Owner: rank})
			}
		}
		if d.err != nil {
			panic("forest: corrupt ghost payload: " + d.err.Error())
		}
		comm.PutBuf(data) // entries decoded by value above
	}
	slices.SortFunc(ghosts, compareGhostOctants)
	c.SetPhase("default")
	return &GhostLayer{Octants: ghosts}
}

func compareGhostOctants(a, b GhostOctant) int {
	if a.Tree != b.Tree {
		return int(a.Tree) - int(b.Tree)
	}
	return octant.Compare(a.Oct, b.Oct)
}

// adjacentToLocal reports whether the leaf o of tree t (possibly remote)
// shares a boundary object with one of this rank's leaves.  The candidate
// leaves are found by walking o's neighbor regions, including across tree
// boundaries.
func (f *Forest) adjacentToLocal(t int32, o octant.Octant) bool {
	dirs := octant.Directions(f.Conn.dim, f.Conn.dim)
	for _, d := range dirs {
		n := o.Neighbor(d)
		ti, n2, shift, ok := f.Conn.Canonicalize(t, n)
		if !ok {
			continue
		}
		tc := f.chunkFor(ti)
		if tc == nil {
			continue
		}
		lo, hi := linear.OverlapRangeKeys(tc.Leaves, octant.KeyOf(n2))
		// Verify true adjacency in a common frame (o expressed in the
		// neighbor tree's coordinates).
		oin := shift.Apply(o)
		for _, leaf := range tc.Leaves[lo:hi] {
			if octant.Adjacency(oin, leaf.Octant()) >= 1 {
				return true
			}
		}
	}
	return false
}
