package mesh

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/notify"
	"repro/internal/octant"
)

// This file implements distributed corner-node numbering: the parallel
// companion of BuildNodes, in the spirit of p4est's lnodes.  Each rank
// numbers the nodes it owns (ownership follows the partition of the
// space-filling curve), learns the ids of nodes owned by neighbors through
// a query/response exchange whose pattern is reversed with the Notify
// algorithm, and emits element connectivity with globally consistent ids.
// The forest must be balanced and a ghost layer supplied, so that every
// leaf containing a local corner is visible locally.

// DistHanging is a hanging node with global dependency ids.
type DistHanging struct {
	Deps []int64
}

// DistNodes is one rank's portion of a global node numbering.
type DistNodes struct {
	// NumGlobal is the total number of independent nodes in the forest.
	NumGlobal int64
	// NumOwned and GlobalOffset describe this rank's contiguous id block:
	// ids [GlobalOffset, GlobalOffset+NumOwned).
	NumOwned     int
	GlobalOffset int64
	// ElementNodes[t] has one row of 2^d entries per local leaf of tree
	// chunk t (indexed as in Forest.Local).  Entries >= 0 are global node
	// ids; an entry -1-h refers to Hangings[h].
	ElementNodes [][][]int64
	// Hangings lists this rank's hanging-node classes.
	Hangings []DistHanging
}

const (
	tagNodeQuery = 110
	tagNodeReply = 111
)

// BuildNodesDistributed numbers the corner nodes of a balanced distributed
// forest.  Collective.  ghost must be the layer built by f.BuildGhost on
// the current forest.
func BuildNodesDistributed(f *forest.Forest, c *comm.Comm, ghost *forest.GhostLayer) (*DistNodes, error) {
	conn := f.Conn
	dim := conn.Dim()

	// Patch view: local + ghost leaves per tree, for corner classification.
	// This is a true edge of the packed-key forest: the numbering works on
	// coordinates, so the local chunks materialize here once.
	patch := make([][]octant.Octant, conn.NumTrees())
	for _, tc := range f.Local {
		patch[tc.Tree] = octant.AppendOctants(patch[tc.Tree], tc.Leaves)
	}
	for _, g := range ghost.Octants {
		patch[g.Tree] = append(patch[g.Tree], g.Oct)
	}
	for t := range patch {
		slices.SortFunc(patch[t], octant.Compare)
	}
	b := &builder{conn: conn, trees: patch, dim: dim}

	// Classify the corners of every local leaf.
	type cornerInfo struct {
		independent bool
		deps        []pointKey
		owner       int
	}
	corners := make(map[pointKey]*cornerInfo)
	classify := func(key pointKey) (*cornerInfo, error) {
		if in, ok := corners[key]; ok {
			return in, nil
		}
		ind, deps, err := b.classify(key)
		if err != nil {
			return nil, err
		}
		in := &cornerInfo{independent: ind, deps: deps, owner: cornerOwner(f, key)}
		corners[key] = in
		return in, nil
	}
	for _, tc := range f.Local {
		for _, k := range tc.Leaves {
			o := k.Octant()
			for cn := 0; cn < octant.NumCorners(dim); cn++ {
				key := b.canonicalCorner(tc.Tree, o, cn)
				in, err := classify(key)
				if err != nil {
					return nil, err
				}
				// Dependencies of hanging corners are needed too.
				for _, dk := range in.deps {
					if _, err := classify(dk); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Owned independent corners get contiguous ids in canonical order.
	var ownedKeys []pointKey
	for k, in := range corners {
		if in.independent && in.owner == c.Rank() {
			ownedKeys = append(ownedKeys, k)
		}
	}
	slices.SortFunc(ownedKeys, pointKey.compare)
	counts := c.AllgatherInt64(int64(len(ownedKeys)))
	var offset, total int64
	for r, n := range counts {
		if r < c.Rank() {
			offset += n
		}
		total += n
	}
	ids := make(map[pointKey]int64, len(corners))
	for i, k := range ownedKeys {
		ids[k] = offset + int64(i)
	}

	// Resolve foreign independent corners: query their owners.
	queries := make(map[int][]pointKey)
	for k, in := range corners {
		if in.independent && in.owner != c.Rank() {
			queries[in.owner] = append(queries[in.owner], k)
		}
	}
	peers := make([]int, 0, len(queries))
	for r := range queries {
		peers = append(peers, r)
	}
	slices.Sort(peers)
	c.SetPhase("node-numbering")
	senders := notify.Notify(c, peers)
	for _, r := range peers {
		ks := queries[r]
		slices.SortFunc(ks, pointKey.compare)
		var buf []byte
		for _, k := range ks {
			buf = appendPointKey(buf, k)
		}
		c.Send(r, tagNodeQuery, buf)
	}
	for _, r := range senders {
		data := c.Recv(r, tagNodeQuery)
		var reply []byte
		for off := 0; off < len(data); {
			var k pointKey
			k, off = pointKeyAt(data, off)
			id, ok := ids[k]
			if !ok {
				return nil, fmt.Errorf("mesh: rank %d asked rank %d for unknown node %+v", r, c.Rank(), k)
			}
			reply = comm.AppendInt64(reply, id)
		}
		c.Send(r, tagNodeReply, reply)
	}
	for _, r := range peers {
		reply := c.Recv(r, tagNodeReply)
		ks := queries[r]
		if len(reply) != 8*len(ks) {
			return nil, fmt.Errorf("mesh: short node reply from rank %d", r)
		}
		for i, k := range ks {
			id, _ := comm.Int64At(reply, 8*i)
			ids[k] = id
		}
	}
	c.SetPhase("default")

	// Emit element connectivity.
	out := &DistNodes{NumGlobal: total, NumOwned: len(ownedKeys), GlobalOffset: offset}
	out.ElementNodes = make([][][]int64, len(f.Local))
	hangingIndex := make(map[string]int32)
	for ti, tc := range f.Local {
		out.ElementNodes[ti] = make([][]int64, len(tc.Leaves))
		for li, k := range tc.Leaves {
			o := k.Octant()
			row := make([]int64, octant.NumCorners(dim))
			for cn := range row {
				key := b.canonicalCorner(tc.Tree, o, cn)
				in := corners[key]
				if in.independent {
					row[cn] = ids[key]
					continue
				}
				deps := make([]int64, len(in.deps))
				sig := ""
				for j, dk := range in.deps {
					id, ok := ids[dk]
					if !ok {
						return nil, fmt.Errorf("mesh: unresolved dependency %+v", dk)
					}
					deps[j] = id
					sig += fmt.Sprintf("%d,", id)
				}
				h, ok := hangingIndex[sig]
				if !ok {
					h = int32(len(out.Hangings))
					out.Hangings = append(out.Hangings, DistHanging{Deps: deps})
					hangingIndex[sig] = h
				}
				row[cn] = int64(-1 - h)
			}
			out.ElementNodes[ti][li] = row
		}
	}
	return out, nil
}

// cornerOwner returns the rank that owns the corner: the owner of the
// lattice cell whose upper corner is the point (clamped into the root), a
// deterministic rule every rank evaluates identically on the canonical key.
func cornerOwner(f *forest.Forest, key pointKey) int {
	clamp := func(v int64) int32 {
		if v >= int64(octant.RootLen) {
			return octant.RootLen - 1
		}
		if v < 0 {
			return 0
		}
		return int32(v)
	}
	return f.OwnerOf(forest.Pos{Tree: key.Tree, X: clamp(key.X), Y: clamp(key.Y), Z: clamp(key.Z)})
}

func appendPointKey(b []byte, k pointKey) []byte {
	b = comm.AppendInt32(b, k.Tree)
	b = comm.AppendInt32(b, int32(k.X))
	b = comm.AppendInt32(b, int32(k.Y))
	return comm.AppendInt32(b, int32(k.Z))
}

func pointKeyAt(b []byte, off int) (pointKey, int) {
	t, off := comm.Int32At(b, off)
	x, off := comm.Int32At(b, off)
	y, off := comm.Int32At(b, off)
	z, off := comm.Int32At(b, off)
	return pointKey{Tree: t, X: int64(x), Y: int64(y), Z: int64(z)}, off
}
