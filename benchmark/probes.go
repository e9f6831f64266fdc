package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/linear"
	"repro/internal/mesh"
	"repro/internal/notify"
	"repro/internal/octant"
	"repro/internal/traverse"
)

// Layer probes: each times one public function of one internal package on
// data the workload itself produced — rank 0's own leaves, the workload's
// own world and communication pattern — so a layer's number moves with the
// input the end-to-end metrics were measured on.

const (
	notifyIters    = 20
	rttIters       = 2000
	streamMsgs     = 256
	streamMsgBytes = 64 << 10
	streamWindow   = 16
	allgatherIters = 200
	kernelIters    = 5

	tagPing = 7001
	tagPong = 7002
	tagData = 7003
	tagAck  = 7004
)

// probe collects what the probes of one repetition measured.  Rank 0 owns
// every field except forests and notifyDur, where each rank writes its own
// slot.
type probe struct {
	seed int64

	inputChunk []octant.Key     // rank 0's largest tree chunk entering Balance
	forests    []*forest.Forest // every rank's balanced forest

	notifyDur   [][]time.Duration // [iteration][rank]
	rttUs       float64
	streamMBps  float64
	allgatherUs float64
	nodesS      float64
	nodes       int64
}

func newProbe(seed int64, ranks int) *probe {
	p := &probe{seed: seed, forests: make([]*forest.Forest, ranks), notifyDur: make([][]time.Duration, notifyIters)}
	for i := range p.notifyDur {
		p.notifyDur[i] = make([]time.Duration, ranks)
	}
	return p
}

// largestChunk returns the longest tree chunk of f, or nil.
func largestChunk(f *forest.Forest) []octant.Key {
	var best []octant.Key
	for _, tc := range f.Local {
		if len(tc.Leaves) > len(best) {
			best = tc.Leaves
		}
	}
	return best
}

// input is called by every rank right before a timed Balance; rank 0 keeps
// a copy of its largest chunk, the input of the subtree-balance probe.
func (p *probe) input(c *comm.Comm, f *forest.Forest) {
	if p == nil || c.Rank() != 0 {
		return
	}
	if chunk := largestChunk(f); len(chunk) > len(p.inputChunk) {
		p.inputChunk = slices.Clone(chunk)
	}
}

// collective runs the probes that need the world: every rank calls it after
// the pipeline, with its balanced forest and (on the AMR loop) the ghost
// layer of the last step.
func (p *probe) collective(m *meter, c *comm.Comm, f *forest.Forest, ghost *forest.GhostLayer) {
	rank, size := c.Rank(), c.Size()
	p.forests[rank] = f
	if ghost == nil {
		m.call(c, "ghost", func() { ghost = f.BuildGhost(c) })
	}

	// notify: reverse the real ghost-exchange pattern.
	var receivers []int
	for owner := range ghost.ByOwner() {
		receivers = append(receivers, owner)
	}
	slices.Sort(receivers)
	for i := 0; i < notifyIters; i++ {
		m.barrier(c)
		start := time.Now()
		m.call(c, "notify", func() { notify.Notify(c, receivers) })
		p.notifyDur[i][rank] = time.Since(start)
	}

	// comm: latency, bandwidth and a collective between the two ends of
	// the world (across the socket when there is one).
	a, b := 0, size-1
	msg := make([]byte, 64)
	m.barrier(c)
	m.call(c, "rtt", func() {
		start := time.Now()
		for i := 0; i < rttIters; i++ {
			if rank == a {
				c.Send(b, tagPing, msg)
			}
			if rank == b {
				c.Recv(a, tagPing)
				c.Send(a, tagPong, msg)
			}
			if rank == a {
				c.Recv(b, tagPong)
			}
		}
		if rank == a {
			p.rttUs = float64(time.Since(start).Microseconds()) / rttIters
		}
	})
	chunk := make([]byte, streamMsgBytes)
	m.barrier(c)
	m.call(c, "stream", func() {
		start := time.Now()
		for w := 0; w < streamMsgs/streamWindow; w++ {
			if rank == a {
				for i := 0; i < streamWindow; i++ {
					c.Send(b, tagData, chunk)
				}
			}
			if rank == b {
				for i := 0; i < streamWindow; i++ {
					c.Recv(a, tagData)
				}
				c.Send(a, tagAck, nil)
			}
			if rank == a {
				c.Recv(b, tagAck)
			}
		}
		if rank == a {
			p.streamMBps = float64(streamMsgs*streamMsgBytes) / 1e6 / time.Since(start).Seconds()
		}
	})
	block := make([]byte, 1<<10)
	m.barrier(c)
	m.call(c, "allgather", func() {
		start := time.Now()
		for i := 0; i < allgatherIters; i++ {
			c.Allgatherv(block)
		}
		if rank == 0 {
			p.allgatherUs = float64(time.Since(start).Microseconds()) / allgatherIters
		}
	})

	// mesh: node numbering of the final AMR mesh.  It rejects unbalanced
	// input, so it doubles as a check.
	if m.in.steps > 0 {
		m.barrier(c)
		start := time.Now()
		m.call(c, "mesh_nodes", func() {
			dn, err := mesh.BuildNodesDistributed(f, c, ghost)
			if err != nil {
				m.fail(fmt.Errorf("rank %d: mesh.BuildNodesDistributed: %w", rank, err))
			} else if rank == 0 {
				p.nodes = dn.NumGlobal
			}
		})
		m.barrier(c)
		if rank == 0 {
			p.nodesS = time.Since(start).Seconds()
		}
	}
}

// sink keeps the results of timed kernel loops alive.
var sink int

// timeKernel returns the median wall time of kernelIters runs of fn in
// nanoseconds.
func timeKernel(fn func()) float64 {
	runs := make([]float64, kernelIters)
	for i := range runs {
		start := time.Now()
		fn()
		runs[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(runs)
}

// local runs the single-rank kernel probes on rank 0's leaves and returns
// the per-layer metrics they produce.
func (p *probe) local(in *input) map[string]float64 {
	v := make(map[string]float64)
	leaves := largestChunk(p.forests[0])
	n := float64(len(leaves))
	root := octant.NearestCommonAncestorKeys(leaves[0], leaves[len(leaves)-1])

	// forest wire codec, default codec (the BalanceOptions zero value).
	var codec forest.WireCodec
	var enc []byte
	v["forest.wire_encode_ns_per_key"] = timeKernel(func() { enc = forest.EncodeKeyList(enc[:0], leaves, codec) }) / n
	v["forest.wire_decode_ns_per_key"] = timeKernel(func() {
		keys, _, err := forest.DecodeKeyList(enc, codec)
		if err != nil || len(keys) != len(leaves) {
			panic(fmt.Sprintf("DecodeKeyList: %d keys, err %v", len(keys), err))
		}
	}) / n
	v["forest.wire_bytes_per_key"] = float64(len(enc)) / n

	// balance: the subtree balance of rank 0's largest unbalanced chunk,
	// called the way the forest's local-balance phase calls it.
	s := p.inputChunk
	sroot := octant.NearestCommonAncestorKeys(s[0], s[len(s)-1])
	var out []octant.Key
	ns := timeKernel(func() { out = balance.SubtreeNewKeys(sroot, s, in.k) })
	v["balance.subtree_ns_per_oct"] = ns / float64(len(out))
	v["balance.subtree_out_octs"] = float64(len(out))

	// linear: sort, batched lower bound, reduce, complete.
	rng := rand.New(rand.NewSource(p.seed))
	shuffled := make([]octant.Key, len(leaves))
	sortRuns := make([]float64, kernelIters)
	for i := range sortRuns {
		copy(shuffled, leaves)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		start := time.Now()
		linear.SortKeys(shuffled)
		sortRuns[i] = float64(time.Since(start).Nanoseconds())
	}
	v["linear.sort_ns_per_key"] = median(sortRuns) / n
	idx := make([]int, len(leaves))
	v["linear.lower_bound_ns_per_key"] = timeKernel(func() { linear.LowerBoundKeysBatch(leaves, leaves, idx) }) / n
	var reduced, completed []octant.Key
	v["linear.reduce_ns_per_key"] = timeKernel(func() { reduced = linear.ReduceKeys(leaves) }) / n
	reduced = linear.LinearizeKeys(reduced)
	ns = timeKernel(func() { completed = linear.CompleteKeys(root, reduced) })
	v["linear.complete_ns_per_key"] = ns / float64(len(completed))

	// octant: key unpack/re-pack and key compare.
	v["octant.key_roundtrip_ns"] = timeKernel(func() {
		for _, k := range leaves {
			sink += int(octant.KeyOf(k.Octant()).Lo)
		}
	}) / n
	v["octant.compare_ns"] = timeKernel(func() {
		for i := 1; i < len(leaves); i++ {
			sink += octant.KeyCompare(leaves[i-1], leaves[i])
		}
	}) / n

	// traverse: full descent to every leaf.
	var st traverse.Stats
	v["traverse.search_ns_per_leaf"] = timeKernel(func() {
		st = traverse.Stats{}
		traverse.SearchKeys(root, leaves, func(octant.Key, int, int, bool) bool { return true }, &st)
	}) / n
	v["traverse.nodes_visited"] = float64(st.Nodes)
	return v
}

// verify gathers the balanced forest and checks the 2:1 condition across
// the whole forest, tree boundaries included.
func (p *probe) verify(in *input) error {
	trees := make([][]octant.Octant, in.conn.NumTrees())
	for _, f := range p.forests { // rank order is curve order
		for _, tc := range f.Local {
			trees[tc.Tree] = octant.AppendOctants(trees[tc.Tree], tc.Leaves)
		}
	}
	return forest.CheckForest(in.conn, trees, in.k)
}
