package forest

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/notify"
	"repro/internal/obs"
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

// ghostScan computes the ghost send schedule of rank me: the boundary scan
// under the ghost filter, whose subtrees with an entirely rank-local
// insulation neighborhood are pruned without touching their leaves, so the
// work is proportional to the partition boundary rather than the partition
// volume.  Each surviving leaf is sent to every other rank owning part of
// one of its insulation cells; a final sort+compact replaces the per-rank
// hash dedup, making the schedule — sorted by (rank, tree, curve position) —
// bit-identical at any worker count.
func (f *Forest) ghostScan(me, workers int) ([]GhostSend, traverse.Stats, groupStats) {
	scan := f.scanBoundary(me, true, workers, func(n int, task func(int)) { parallelFor(workers, n, task) })
	slices.SortFunc(scan.sends, compareGhostSends)
	return slices.Compact(scan.sends), scan.st, scan.groupStats
}

const tagGhost = 102

// BuildGhost constructs the ghost layer collectively: every rank sends each
// of its boundary leaves to the owners of the regions adjacent to it, and
// keeps the received leaves that are adjacent to one of its own.  The send
// schedule comes from the boundary scan (ghostScan); the asymmetric
// pattern is reversed with the Notify algorithm of Section V.
func (f *Forest) BuildGhost(c *comm.Comm) *GhostLayer {
	defer c.Tracer().Begin(c.Rank(), "ghost", "forest").End()
	sends, st, gs := f.ghostScan(c.Rank(), f.workerCount(c.LocalRanks()))
	tr := c.Tracer()
	tr.Add(c.Rank(), "ghost/nodes", int64(st.Nodes))
	tr.Add(c.Rank(), "ghost/leaves", int64(st.Leaves))
	tr.Add(c.Rank(), "ghost/pruned", int64(st.Pruned))
	tr.Add(c.Rank(), obs.CounterGhostGroups, int64(gs.groups))
	tr.Add(c.Rank(), obs.CounterGhostCells, int64(gs.cells))

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
