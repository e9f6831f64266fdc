package forest

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/linear"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/octant"
	"repro/internal/traverse"
)

// Algo selects the one-pass balance variant.
type Algo int

const (
	// AlgoNew is the paper's algorithm: seed octants in responses and
	// per-query-octant reconstruction in the rebalance.  It is the zero
	// value, so BalanceOptions{} selects it.
	AlgoNew Algo = iota
	// AlgoOld is the pre-paper algorithm: raw octants in responses and
	// full-partition rebalancing with auxiliary octants.
	AlgoOld
)

func (a Algo) String() string {
	if a == AlgoOld {
		return "old"
	}
	return "new"
}

// StageOverride optionally pins one stage of the one-pass algorithm to a
// specific variant, independent of BalanceOptions.Algo.  It exists for the
// ablation studies in DESIGN.md §5: the paper attributes roughly half of
// its speedup to the new Local balance and the rest to the new response
// encoding and Local rebalance; overriding one stage at a time isolates
// each contribution.
type StageOverride int

const (
	// StageDefault inherits BalanceOptions.Algo.
	StageDefault StageOverride = iota
	// StageOld pins the stage to the old variant.
	StageOld
	// StageNew pins the stage to the new variant.
	StageNew
)

func (s StageOverride) resolve(def Algo) Algo {
	switch s {
	case StageOld:
		return AlgoOld
	case StageNew:
		return AlgoNew
	}
	return def
}

// NotifyScheme selects the pattern-reversal algorithm of Section V.
type NotifyScheme int

const (
	// NotifyNaive is the Allgather/Allgatherv scheme of Figure 12.
	NotifyNaive NotifyScheme = iota
	// NotifyRanges encodes receivers in bounded rank ranges.
	NotifyRanges
	// NotifyDC is the divide-and-conquer Notify algorithm of Figure 13.
	NotifyDC
)

func (s NotifyScheme) String() string {
	switch s {
	case NotifyNaive:
		return "naive"
	case NotifyRanges:
		return "ranges"
	}
	return "notify"
}

// BalanceOptions configures a Balance call.  The zero value selects the
// paper's new algorithm with the divide-and-conquer Notify.  The worker pool
// and the wire codec are the forest's own settings (Forest.Workers,
// Forest.Wire).
type BalanceOptions struct {
	Algo   Algo
	Notify NotifyScheme
	// MaxRanges bounds the range count for NotifyRanges (default 8).
	MaxRanges int
	// LocalStage overrides the Local balance algorithm (ablation).
	LocalStage StageOverride
	// RemoteStage overrides the response encoding and Local rebalance
	// algorithm together — they must agree, since seeds and raw octants
	// are interpreted differently by the receiver (ablation).
	RemoteStage StageOverride
}

// PhaseTimes records wall-clock durations of the one-pass balance phases as
// reported in Figures 15 and 17 of the paper: Local balance, Notify
// (encoding the communication pattern), Query and Response (message
// exchange plus response computation), and Local rebalance.
type PhaseTimes struct {
	LocalBalance  time.Duration
	Notify        time.Duration
	QueryResponse time.Duration
	Rebalance     time.Duration
}

// Total returns the sum over all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.LocalBalance + p.Notify + p.QueryResponse + p.Rebalance
}

// Max returns the elementwise maximum of two phase timings.
func (p PhaseTimes) Max(q PhaseTimes) PhaseTimes {
	m := p
	if q.LocalBalance > m.LocalBalance {
		m.LocalBalance = q.LocalBalance
	}
	if q.Notify > m.Notify {
		m.Notify = q.Notify
	}
	if q.QueryResponse > m.QueryResponse {
		m.QueryResponse = q.QueryResponse
	}
	if q.Rebalance > m.Rebalance {
		m.Rebalance = q.Rebalance
	}
	return m
}

// AllreducePhaseTimes reduces per-rank phase timings to their elementwise
// maximum over all ranks, on every rank.  Collective.  The traffic is
// attributed to the caller's current phase label.
func AllreducePhaseTimes(c *comm.Comm, p PhaseTimes) PhaseTimes {
	return PhaseTimes{
		LocalBalance:  time.Duration(c.AllreduceMaxInt64(int64(p.LocalBalance))),
		Notify:        time.Duration(c.AllreduceMaxInt64(int64(p.Notify))),
		QueryResponse: time.Duration(c.AllreduceMaxInt64(int64(p.QueryResponse))),
		Rebalance:     time.Duration(c.AllreduceMaxInt64(int64(p.Rebalance))),
	}
}

// phaseSpan ties one balance phase to the observability layer: it labels
// the rank's comm traffic, opens a tracer span, and measures the phase.
// With a tracer attached the reported duration is the span's own clock —
// PhaseTimes then is literally a view over the trace (and follows a
// virtual clock in tests); without one it falls back to the local clock.
type phaseSpan struct {
	start time.Time
	sp    obs.Span
}

func beginPhase(c *comm.Comm, name string) phaseSpan {
	c.SetPhase(name)
	ps := phaseSpan{sp: c.Tracer().Begin(c.Rank(), name, "balance")}
	if !ps.sp.Live() {
		ps.start = time.Now()
	}
	return ps
}

func (p phaseSpan) end() time.Duration {
	if p.sp.Live() {
		return p.sp.End()
	}
	return time.Since(p.start)
}

// Message tags used by the balance exchange.
const (
	tagQuery    = 100
	tagResponse = 101
)

// PreclusionFaultLevels deliberately widens the response preclusion test by
// the given number of levels, making responders silently drop influences
// that the balance condition requires.  It exists solely so the
// differential-testing harness (internal/harness, cmd/stress -fault) can
// prove that it detects a broken balance; it must remain zero otherwise.
// Set it only while no Balance call is in flight.
var PreclusionFaultLevels int

// precludedLevel reports whether a local leaf at level lv is too coarse to
// force any split of a query octant at level rlv: only octants at least two
// levels finer than the query octant can split it (Section IV).  The levels
// are all the test reads, so the response path never unpacks precluded
// candidates.
func precludedLevel(lv, rlv int8) bool {
	return int(lv) < int(rlv)+2+PreclusionFaultLevels
}

// query identifies one balance query: a leaf octant r, packed, expressed in
// the responder tree's coordinate frame.  r lies outside that tree's root
// cube when the interaction crosses a tree boundary; the sign-shifted key
// order sorts such octants like any other, so every query list is simply
// ordered by (tree, r).
type query struct {
	tree int32
	r    octant.Key
}

func compareQueries(a, b query) int {
	return cmp.Or(cmp.Compare(a.tree, b.tree), octant.KeyCompare(a.r, b.r))
}

// origin is the provenance of an issued query: the local tree its octant is
// a leaf of, and the shift that took the leaf into the responder's frame.
type origin struct {
	tree  int32
	shift Shift
}

// issuedQuery is one query on its way to rank dest — the issuing rank itself
// for an inter-tree interaction within its own partition.
type issuedQuery struct {
	dest int32
	q    query
	org  origin
}

// querySet is everything a rank asks in one Balance call: the queries sorted
// by (destination rank, tree, r) without repeats, with destination and
// provenance in slices parallel to qs.  The queries of one destination are a
// contiguous run, itself in the (tree, r) order responders rely on.
type querySet struct {
	qs   []query
	dest []int32
	org  []origin
}

func newQuerySet(issued []issuedQuery) querySet {
	slices.SortFunc(issued, func(a, b issuedQuery) int {
		return cmp.Or(cmp.Compare(a.dest, b.dest), compareQueries(a.q, b.q))
	})
	s := querySet{
		qs:   make([]query, 0, len(issued)),
		dest: make([]int32, 0, len(issued)),
		org:  make([]origin, 0, len(issued)),
	}
	for i, iq := range issued {
		if i > 0 && iq.dest == issued[i-1].dest && iq.q == issued[i-1].q {
			continue // one leaf reaches the same responder through several cells
		}
		s.qs = append(s.qs, iq.q)
		s.dest = append(s.dest, iq.dest)
		s.org = append(s.org, iq.org)
	}
	return s
}

// run returns the index range of the queries addressed to rank.
func (s *querySet) run(rank int) (lo, hi int) {
	lo, _ = slices.BinarySearch(s.dest, int32(rank))
	hi, _ = slices.BinarySearch(s.dest, int32(rank)+1)
	return lo, hi
}

// peers returns the ascending ranks other than me that are asked anything.
func (s *querySet) peers(me int) []int {
	var ranks []int
	for i, d := range s.dest {
		if int(d) != me && (i == 0 || d != s.dest[i-1]) {
			ranks = append(ranks, int(d))
		}
	}
	return ranks
}

// Balance enforces the k-balance condition across the entire forest using
// the one-pass parallel algorithm of Section II-B with the selected
// variants.  Collective.  It returns this rank's phase timings; reduce with
// AllreducePhaseTimes for the global maximum.
func (f *Forest) Balance(c *comm.Comm, k int, opt BalanceOptions) PhaseTimes {
	if k < 1 || k > f.Conn.dim {
		panic("forest: invalid balance condition")
	}
	var times PhaseTimes
	root := octant.Root(f.Conn.dim)
	localAlgo := opt.LocalStage.resolve(opt.Algo)
	remoteAlgo := opt.RemoteStage.resolve(opt.Algo)
	workers := f.workerCount(c.LocalRanks())
	tr, me := c.Tracer(), c.Rank()
	if workers > 1 {
		tr.ObserveMax(me, obs.GaugeLocalWorkers, int64(workers))
	}
	// child opens a span nested under the current phase span.  Like every
	// span it is opened and closed on the rank's own goroutine.
	child := func(name string) obs.Span { return tr.Begin(me, name, "balance") }
	// runParallel fans n independent tasks out over the worker pool,
	// bracketed by a local/par span.  The span is opened and closed on the
	// rank's own goroutine (workers never touch the tracer), so the strict
	// per-rank span nesting holds.
	runParallel := func(n int, task func(i int)) {
		if workers > 1 && n > 1 {
			sp := child(obs.SpanLocalPar)
			parallelFor(workers, n, task)
			sp.End()
			return
		}
		parallelFor(1, n, task)
	}

	// Phase 1: Local balance.  Balance each local tree chunk as a
	// subtree, clipped back to the owned curve range.  Chunks are
	// independent (each is balanced within its own enclosing subtree), so
	// they go to the pool as-is; a chunk is never subdivided further
	// because balance interactions couple everything inside it.
	ps := beginPhase(c, "local-balance")
	runParallel(len(f.Local), func(i int) {
		tc := &f.Local[i]
		if localAlgo == AlgoNew {
			tc.Leaves = localBalanceChunkKeys(tc.Leaves, k)
		} else {
			tc.Leaves = octant.AppendKeys(tc.Leaves[:0], localBalanceChunk(tc.Octants(), k))
		}
	})
	times.LocalBalance = ps.end()

	// Phase 2: Query construction.  The boundary scan descends each tree
	// chunk and prunes the subtrees whose insulation neighborhood is
	// same-tree and rank-local without touching their leaves; the
	// surviving leaves issue one query per target of their insulation
	// groups.
	ps = beginPhase(c, "query")
	sp := child(obs.SpanQueryBuild)
	scan := f.scanBoundary(me, false, workers, runParallel)
	set := newQuerySet(scan.issued)
	sp.End()
	tr.Add(me, "balance/query-nodes", int64(scan.st.Nodes))
	tr.Add(me, "balance/query-leaves", int64(scan.st.Leaves))
	tr.Add(me, "balance/query-pruned", int64(scan.st.Pruned))
	tr.Add(me, obs.CounterQueryGroups, int64(scan.groups))
	tr.Add(me, obs.CounterQueryCells, int64(scan.cells))
	tr.Add(me, obs.CounterBalanceQueries, int64(len(set.qs)))
	queryBuildTime := ps.end()

	// Phase 3: Notify — reverse the asymmetric pattern.
	ps = beginPhase(c, "notify")
	receivers := set.peers(me)
	var senders []int
	sendTo := receivers
	switch opt.Notify {
	case NotifyNaive:
		senders = notify.NaiveCodec(c, receivers, f.Wire)
	case NotifyRanges:
		mr := opt.MaxRanges
		if mr <= 0 {
			mr = 8
		}
		senders = notify.RangesCodec(c, receivers, mr, f.Wire)
		// The sender lists contain false positives; match them with
		// zero-length queries so every expected message exists.
		sendTo = notify.RangeCover(receivers, mr, c.Size(), me)
	default:
		senders = notify.NotifyCodec(c, receivers, f.Wire)
	}
	times.Notify = ps.end()

	// Phase 4: Query and Response exchange.
	ps = beginPhase(c, "query-response")
	dim := int8(f.Conn.dim)
	sp = child(obs.SpanQRSend)
	for _, rank := range sendTo {
		lo, hi := set.run(rank)
		enc := wireEnc{b: comm.GetBuf(), codec: f.Wire, dim: dim}
		enc.count(hi - lo)
		for _, q := range set.qs[lo:hi] {
			enc.tree(q.tree)
			enc.oct(q.r.Octant())
		}
		c.AddRawBytes(enc.raw)
		c.Send(rank, tagQuery, enc.b)
	}
	sp.End()
	// Answer incoming queries (senders may include false positives with
	// empty query lists under the Ranges scheme).
	var rst respondStats
	for _, rank := range senders {
		data := c.Recv(rank, tagQuery)
		sp = child(obs.SpanQRRespondRemote)
		payload, raw := f.respond(data, k, remoteAlgo, workers, runParallel, &rst)
		sp.End()
		c.AddRawBytes(raw)
		c.Send(rank, tagResponse, payload)
	}
	// seeds[i] is the response to set.qs[i]: seed octants (new algorithm)
	// or raw octants (old), in the responder's frame; nil when the
	// responder forces no split.  Self queries (inter-tree interactions
	// within this rank) take the same response path, without messages.
	seeds := make([][]octant.Key, len(set.qs))
	sp = child(obs.SpanQRRespondSelf)
	selfLo, selfHi := set.run(me)
	copy(seeds[selfLo:selfHi], f.respondQueries(set.qs[selfLo:selfHi], k, remoteAlgo, workers, runParallel, &rst))
	sp.End()
	sp = child(obs.SpanQRRecvWait)
	for _, rank := range sendTo {
		data := c.Recv(rank, tagResponse)
		d := wireDec{b: data, codec: f.Wire, dim: dim}
		// A responder answers in query order and skips queries it has
		// nothing to say to, so one forward walk of the run matches them.
		i, hi := set.run(rank)
		for d.more() {
			t := d.tree()
			q := query{tree: t, r: octant.KeyOf(d.oct())}
			keys := d.keys()
			if d.err != nil {
				break
			}
			for i < hi && set.qs[i] != q {
				i++
			}
			if i == hi {
				panic("forest: response for unknown query")
			}
			seeds[i] = keys
			i++
		}
		if d.err != nil {
			panic("forest: corrupt response payload: " + d.err.Error())
		}
		comm.PutBuf(data) // keys decoded into fresh slices above
	}
	sp.End()
	tr.Add(me, "balance/respond-nodes", int64(rst.Nodes))
	tr.Add(me, "balance/respond-leaves", int64(rst.Leaves))
	tr.Add(me, "balance/respond-pruned", int64(rst.Pruned))
	tr.Add(me, obs.CounterRespondHits, int64(rst.hits))
	tr.Add(me, obs.CounterRespondFamilies, int64(rst.families))
	times.QueryResponse = ps.end() + queryBuildTime

	// Phase 5: Local rebalance.  Transform the responses back into the
	// local frames and merge their influence into the partition.
	ps = beginPhase(c, "rebalance")
	sp = child(obs.SpanRebalanceGroup)
	jobs, jobRange := f.rebalanceJobs(&set, seeds)
	sp.End()
	if remoteAlgo == AlgoNew {
		// The per-query-octant reconstructions of all local trees form one
		// job list, so the pool stays busy even when the responses
		// concentrate on a single tree; each reconstructed subtree is then
		// spliced into its tree's leaf array (a k-way merge over contiguous
		// leaf segments, itself parallel across trees).
		sp = child(obs.SpanRebalanceSubtree)
		runParallel(len(jobs), func(i int) {
			j := &jobs[i]
			linear.SortKeys(j.seeds)
			sub := balance.SubtreeNewKeys(j.rk, slices.Compact(j.seeds), k)
			if len(sub) == 1 && sub[0] == j.rk {
				return // no split forced; keep the leaf
			}
			j.sub = sub
		})
		sp.End()
		sp = child(obs.SpanRebalanceSplice)
		runParallel(len(f.Local), func(i int) {
			lo, hi := jobRange[i][0], jobRange[i][1]
			if lo == hi {
				return
			}
			tc := &f.Local[i]
			tc.Leaves = spliceReplaceKeys(tc.Leaves, jobs[lo:hi])
		})
		sp.End()
	} else {
		runParallel(len(f.Local), func(i int) {
			lo, hi := jobRange[i][0], jobRange[i][1]
			if lo == hi {
				return
			}
			var recv []octant.Key
			for _, j := range jobs[lo:hi] {
				recv = append(recv, j.seeds...)
			}
			tc := &f.Local[i]
			tc.Leaves = rebalanceOld(root, tc.Leaves, recv, k)
		})
	}
	times.Rebalance = ps.end()

	c.SetPhase("default")
	f.NumGlobal = c.AllreduceSumInt64(f.NumLocal())
	return times
}

// localBalanceChunk balances one rank's contiguous leaf range of a tree
// with the old algorithm: the subtree spanned by the range is balanced and
// the result clipped back to the range (Section III).  The new algorithm
// runs on the resident keys instead (localBalanceChunkKeys).
func localBalanceChunk(leaves []octant.Octant, k int) []octant.Octant {
	if len(leaves) <= 1 {
		return leaves
	}
	sub := octant.NearestCommonAncestor(leaves[0], leaves[len(leaves)-1])
	return clipToRange(balance.SubtreeOld(sub, leaves, k), leaves[0], leaves[len(leaves)-1])
}

// clipToRange keeps the octants lying within the curve range spanned by the
// original first and last leaves.
func clipToRange(octs []octant.Octant, first, last octant.Octant) []octant.Octant {
	fd := first.FirstDescendant(octant.MaxLevel)
	ld := last.LastDescendant(octant.MaxLevel)
	out := octs[:0]
	for _, o := range octs {
		if octant.Compare(o.FirstDescendant(octant.MaxLevel), fd) >= 0 &&
			octant.Compare(o.LastDescendant(octant.MaxLevel), ld) <= 0 {
			out = append(out, o)
		}
	}
	return out
}

// The boundary engine.  Phase 2 and the ghost layer ask one question of the
// insulation layer I(w) of a node w of a local tree (Section II-B): which
// ranks own its cells, and in which trees?  Each answer is a target (rank,
// tree).  A balance query goes to every target except the rank's own tree
// on the rank itself, whose interactions the local balance already covers;
// a ghost send goes to every target on another rank.  One enumeration of
// the targets serves both filters, at the leaves and, to prune, at the
// virtual nodes above them.

// groupStats counts the target enumeration's work at the surviving leaves:
// the insulation groups whose owners were bracketed, and the cells resolved
// one by one because their group straddles a partition boundary.
type groupStats struct {
	groups, cells int
}

// boundaryScan runs the target enumeration over task windows of the local
// chunks and collects the consumer's output: the queries issued, or the
// ghost sends.
type boundaryScan struct {
	f     *Forest
	ot    *ownerTable
	me    int
	ghost bool // the ghost filter; otherwise the query filter
	dirs  []octant.Dir
	tree  int32 // the tree of the task being scanned

	// The node being enumerated, packed and unpacked, and whether its
	// targets go to the output (a leaf) or only decide a prune.
	w    octant.Key
	r    octant.Octant
	emit bool

	issued []issuedQuery
	sends  []GhostSend
	st     traverse.Stats
	groupStats
}

// scanTask is a window of one chunk's leaves below a task root.
type scanTask struct {
	tree   int32
	root   octant.Key
	window []octant.Key
}

// scanBoundary runs the target enumeration over the local partition.  Each
// chunk is descended top-down (internal/traverse); a virtual node whose own
// region is rank-local and none of whose targets passes the filter is
// pruned with its whole subtree, and every surviving leaf hands its targets
// to the output.  The prune is sound by the alignment of the lattice: a
// leaf's same-size neighbour lies within exactly one cell of the 3^d
// insulation grid of any ancestor (cube sides are powers of two dividing
// the ancestor's side), each cell canonicalizes to the same tree as its
// subcubes, and the owners of a subregion are among the owners of its
// enclosing region.
//
// With a pool, top-level subtree tasks fan out over it via par, each into
// its own scan.  Tasks are cut in curve order and their outputs concatenated
// in task order, so the output lists the leaves of each chunk in curve order
// at every worker count.
func (f *Forest) scanBoundary(me int, ghost bool, workers int, par func(int, func(int))) boundaryScan {
	rootKey := octant.KeyOf(octant.Root(f.Conn.dim))
	base := boundaryScan{f: f, ot: f.ownerTable(), me: me, ghost: ghost, dirs: octant.Directions(f.Conn.dim, f.Conn.dim)}
	if workers <= 1 {
		// One scan runs the chunks in order; its output needs no merge.
		for _, tc := range f.Local {
			base.run(scanTask{tree: tc.Tree, root: rootKey, window: tc.Leaves})
		}
		return base
	}
	var tasks []scanTask
	for _, tc := range f.Local {
		for _, t := range traverse.SplitTasksKeys(rootKey, tc.Leaves, 4*workers) {
			tasks = append(tasks, scanTask{tree: tc.Tree, root: t.Root, window: tc.Leaves[t.Lo:t.Hi]})
		}
	}
	// The owner table was warmed above, serially; the workers only read it.
	scans := make([]boundaryScan, len(tasks))
	par(len(tasks), func(i int) {
		scans[i] = base
		scans[i].run(tasks[i])
	})
	var nq, ns int
	for i := range scans {
		nq, ns = nq+len(scans[i].issued), ns+len(scans[i].sends)
	}
	all := base
	all.issued = make([]issuedQuery, 0, nq)
	all.sends = make([]GhostSend, 0, ns)
	for i := range scans {
		all.issued = append(all.issued, scans[i].issued...)
		all.sends = append(all.sends, scans[i].sends...)
		all.st.Merge(scans[i].st)
		all.groups += scans[i].groups
		all.cells += scans[i].cells
	}
	return all
}

// run scans one task.
func (s *boundaryScan) run(t scanTask) {
	s.tree = t.tree
	traverse.SearchKeys(t.root, t.window, func(w octant.Key, _, _ int, isLeaf bool) bool {
		if isLeaf {
			s.targets(w, true)
			return true
		}
		return !s.ot.ownsRegionKey(s.me, s.tree, w) || s.targets(w, false)
	}, &s.st)
}

// targets enumerates the targets of node w's insulation cells and reports
// whether any passes the filter.  With emit the passing targets go to the
// output and the work is counted; without it (a prune probe) it returns at
// the first one.
//
// The cells are resolved per exit target, not one by one.  A node below the
// root that touches m root faces splits its 3^d − 1 cells into at most 2^m
// groups, one per offset in the product over the touched axes of {0, ±1}:
// the in-root group — the 3×3(×3) box clipped to the root — and one exit
// group per neighbour tree (the root itself touches every face and has 3^d).
// Each group is an aligned box of same-size cells in one tree's frame, and
// the Morton order is monotone in every coordinate, so the box's whole
// region lies on the curve between the first descendant of its min-corner
// cell and the last descendant of its max-corner cell: the owners of those
// two positions bracket the owners of every cell.
//
// The in-root group contains the node itself, so it is either dismissed —
// both ends in this rank's own range, two key compares — or straddles.  An
// exit group canonicalizes once; when both ends have one owner it is one
// target.  Only a straddling group falls back to resolving its own cells one
// by one.  The targets are exactly those of the classical per-cell scan, in
// which every insulation cell is canonicalized and every owner of its region
// taken.
func (s *boundaryScan) targets(w octant.Key, emit bool) bool {
	r := w.Octant()
	h := r.Len()
	s.w, s.r, s.emit = w, r, emit
	// Per axis: the corner coordinates lo..hi of the in-root cells, and the
	// group offsets — 0, plus −1 / +1 where the node touches the low / high
	// root face.  Axes past the dimension keep the single offset 0.
	var lo, hi [3]int32
	var offs [3][3]int8
	noff := [3]int{1, 1, 1}
	for a := 0; a < s.f.Conn.dim; a++ {
		c := r.Coord(a)
		lo[a], hi[a] = c-h, c+h
		if c == 0 {
			lo[a] = 0
			offs[a][noff[a]] = -1
			noff[a]++
		}
		if c+h == octant.RootLen {
			hi[a] = c
			offs[a][noff[a]] = 1
			noff[a]++
		}
	}
	found := false
	for i := 0; i < noff[0]; i++ {
		for j := 0; j < noff[1]; j++ {
			for k := 0; k < noff[2]; k++ {
				if s.group(&lo, &hi, octant.Dir{offs[0][i], offs[1][j], offs[2][k]}) {
					if !emit {
						return true
					}
					found = true
				}
			}
		}
	}
	return found
}

// group enumerates the targets of the insulation cells of the current node
// that lie across the root faces named by the exit offset g — the in-root
// cells for g = 0 — and reports whether any passes the filter.  lo and hi
// are the in-root corner ranges from targets.
func (s *boundaryScan) group(lo, hi *[3]int32, g octant.Dir) bool {
	r := s.r
	h := r.Len()
	cmin, cmax := r, r // the min- and max-corner cells of the group's box
	for a := 0; a < s.f.Conn.dim; a++ {
		if g[a] == 0 {
			cmin, cmax = cmin.WithCoord(a, lo[a]), cmax.WithCoord(a, hi[a])
		} else {
			c := r.Coord(a) + int32(g[a])*h
			cmin, cmax = cmin.WithCoord(a, c), cmax.WithCoord(a, c)
		}
	}
	inRoot := g == octant.Dir{}
	t, shift := s.tree, Shift{}
	if !inRoot {
		// Every cell of the group lies in the same neighbour grid cell, so
		// the min corner's translation maps the whole box.
		nt, c, sh, ok := s.f.Conn.Canonicalize(s.tree, cmin)
		if !ok {
			return false // domain boundary
		}
		t, shift, cmin, cmax = nt, sh, c, sh.Apply(cmax)
	}
	if s.emit {
		s.groups++
	}
	first := octant.KeyOf(cmin).FirstDescendant(octant.MaxLevel)
	last := octant.KeyOf(cmax).LastDescendant(octant.MaxLevel)
	if inRoot {
		if s.ot.ownsRange(s.me, t, first, last) {
			return false // same tree, own partition
		}
	} else if p := s.ot.ownerOfKey(t, first); p == s.ot.ownerOfKey(t, last) {
		return s.take(p, t, shift)
	}
	// The group straddles a partition boundary: resolve its cells one by
	// one.  Repeated targets are skipped while they are adjacent and
	// otherwise dropped by the consumer's sort.
	found := false
	prev := [2]int{-1, -1}
	for _, d := range s.dirs {
		if !groupHas(g, d, r, lo, hi) {
			continue
		}
		if s.emit {
			s.cells++
		}
		var cell octant.Key
		if inRoot {
			cell = s.w.Neighbor(d)
			if s.ot.ownsRegionKey(s.me, t, cell) {
				continue
			}
			if !s.emit {
				return true // another rank owns part of the cell: both filters keep it
			}
		} else {
			cell = octant.KeyOf(shift.Apply(r.Neighbor(d)))
		}
		cf, cl := s.ot.ownersOfRegionKey(t, cell)
		if [2]int{cf, cl} == prev {
			continue
		}
		prev = [2]int{cf, cl}
		for rank := cf; rank <= cl; rank++ {
			if s.take(rank, t, shift) {
				if !s.emit {
					return true
				}
				found = true
			}
		}
	}
	return found
}

// groupHas reports whether the insulation cell of r in direction d belongs
// to the group with exit offset g: it leaves the root across exactly g's
// faces and stays within lo..hi on every other axis.
func groupHas(g, d octant.Dir, r octant.Octant, lo, hi *[3]int32) bool {
	for a := 0; a < int(r.Dim); a++ {
		if g[a] != 0 {
			if d[a] != g[a] {
				return false
			}
			continue
		}
		if c := r.Coord(a) + int32(d[a])*r.Len(); c < lo[a] || c > hi[a] {
			return false
		}
	}
	return true
}

// take passes the target (rank, tree t) of the current node, whose cells
// were reached by shift, through the filter and, when emitting, to the
// output: a ghost send of the leaf, or a query of the leaf in t's frame.  It
// reports whether the target passed.
func (s *boundaryScan) take(rank int, t int32, shift Shift) bool {
	if rank == s.me && (s.ghost || t == s.tree) {
		return false
	}
	if !s.emit {
		return true
	}
	if s.ghost {
		s.sends = append(s.sends, GhostSend{Rank: rank, Tree: s.tree, Oct: s.r})
		return true
	}
	q := query{tree: t, r: s.w}
	if shift != (Shift{}) {
		q.r = octant.KeyOf(shift.Apply(s.r))
	}
	s.issued = append(s.issued, issuedQuery{dest: int32(rank), q: q, org: origin{tree: s.tree, shift: shift}})
	return true
}

// applyKey translates a packed octant by the shift.
func (s Shift) applyKey(k octant.Key) octant.Key {
	if s == (Shift{}) {
		return k
	}
	return octant.KeyOf(s.Apply(k.Octant()))
}

// respond processes one incoming query message and produces the response
// payload plus its v0-equivalent raw size: for each query octant, the local
// octants (old algorithm) or seed octants (new algorithm) that encode how
// the query octant must split.  The query buffer is recycled here.
func (f *Forest) respond(data []byte, k int, algo Algo, workers int, par func(int, func(int)), st *respondStats) ([]byte, int) {
	dim, codec := int8(f.Conn.dim), f.Wire
	d := wireDec{b: data, codec: codec, dim: dim}
	minQuery := d.minOct() + 1 // tree id is at least one byte (4 in v0)
	if codec != WireV1 {
		minQuery = d.minOct() + 4
	}
	n := d.count(minQuery)
	qs := make([]query, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		t := d.tree()
		qs = append(qs, query{tree: t, r: octant.KeyOf(d.oct())})
	}
	if d.err != nil {
		panic("forest: corrupt query payload: " + d.err.Error())
	}
	if !slices.IsSortedFunc(qs, compareQueries) {
		panic("forest: query payload not in (tree, key) order")
	}
	comm.PutBuf(data) // queries decoded into fresh memory above
	resp := f.respondQueries(qs, k, algo, workers, par, st)
	enc := wireEnc{b: comm.GetBuf(), codec: codec, dim: dim}
	for i, q := range qs {
		if len(resp[i]) == 0 {
			continue
		}
		enc.tree(q.tree)
		enc.oct(q.r.Octant())
		enc.count(len(resp[i]))
		for _, o := range resp[i] {
			enc.oct(o.Octant())
		}
	}
	return enc.b, enc.raw
}

// respHit is one candidate (query, leaf) pair the simultaneous traversal
// matched: leaf index li of the chunk of query qi's tree intersects the
// insulation box of that query's octant and is fine enough to possibly
// split it.
type respHit struct {
	qi, li int32
}

// respondStats accumulates the responder's work counters over one Balance
// call: the traversal's, the candidate (query, leaf) hits it produced, and
// the hits that survived the sibling-family skip to reach the seed kernel.
type respondStats struct {
	traverse.Stats
	hits, families int
}

// regroupHits turns the traversal's hit lists into one contiguous run per
// query: lis[off[qi]:off[qi+1]] are the leaf indices matched by query qi.
// The lists are read in place, in order; the traversal emits each in curve
// order, so a stable counting sort on the query index leaves every run
// ascending without comparing anything.
func regroupHits(lists [][]respHit, nq int) (lis, off []int32) {
	off = make([]int32, nq+1)
	for _, hits := range lists {
		for _, h := range hits {
			off[h.qi+1]++
		}
	}
	for qi := 0; qi < nq; qi++ {
		off[qi+1] += off[qi]
	}
	lis = make([]int32, off[nq])
	for _, hits := range lists {
		for _, h := range hits {
			lis[off[h.qi]] = h.li
			off[h.qi]++
		}
	}
	// Every off[qi] has walked from the start of run qi to its end, which is
	// the start of run qi+1: shift the offsets back into place.
	copy(off[1:], off[:nq])
	off[0] = 0
	return lis, off
}

// respondQueries computes the response to every query of a (tree, r)-sorted
// list against the local partition; result i answers qs[i] and is nil when
// nothing here splits it.  Candidate leaves come from one simultaneous
// traversal per tree chunk (traverse.SearchBoundaryKeys): the chunk's
// implicit octree is walked against the insulation boxes of the chunk's
// queries, so subtrees far from every query region are pruned wholesale.  An
// aligned cube intersects an aligned insulation cell with positive volume
// only if one contains the other, so the matched set equals the classical
// per-region overlap union exactly.  appendResponse turns a query's
// candidates into its response.
//
// Traversal tasks and then blocks of queries fan out over the worker pool
// via par; every result lands in the slot of its query index, keeping the
// output bit-identical at every worker count.
func (f *Forest) respondQueries(qs []query, k int, algo Algo, workers int, par func(int, func(int)), st *respondStats) [][]octant.Key {
	results := make([][]octant.Key, len(qs))
	rootKey := octant.KeyOf(octant.Root(f.Conn.dim))
	maxTasks := 1
	if workers > 1 {
		maxTasks = 4 * workers
	}
	byTree := func(q query, t int32) int { return cmp.Compare(q.tree, t) }
	var hitLists [][]respHit
	for ci := range f.Local {
		tc := &f.Local[ci]
		qlo, _ := slices.BinarySearchFunc(qs, tc.Tree, byTree)
		qhi, _ := slices.BinarySearchFunc(qs, tc.Tree+1, byTree)
		if qlo == qhi {
			continue
		}
		boxes := make([]traverse.Box, qhi-qlo)
		for i := range boxes {
			boxes[i] = traverse.InsulationBox(qs[qlo+i].r.Octant())
		}
		tasks := traverse.SplitTasksKeys(rootKey, tc.Leaves, maxTasks)
		taskHits := make([][]respHit, len(tasks))
		taskStats := make([]traverse.Stats, len(tasks))
		par(len(tasks), func(i int) {
			t := tasks[i]
			var out []respHit
			traverse.SearchBoundaryKeys(t.Root, tc.Leaves[t.Lo:t.Hi], boxes, func(li, bi int) {
				abs, qi := t.Lo+li, qlo+bi
				if precludedLevel(tc.Leaves[abs].Level(), qs[qi].r.Level()) {
					return
				}
				out = append(out, respHit{qi: int32(qi), li: int32(abs)})
			}, &taskStats[i])
			taskHits[i] = out
		})
		hitLists = append(hitLists, taskHits...)
		for i := range tasks {
			st.Merge(taskStats[i])
		}
	}
	lis, off := regroupHits(hitLists, len(qs))
	st.hits += len(lis)

	// Each block of queries appends its responses back to back into one
	// arena and hands out sub-slices once the arena has stopped growing.
	// The seed scratch goes from block to block through a free list, so no
	// more of them grow than blocks run at once; at most workers blocks run
	// at once, so the list's buffer holds every scratch.
	blocks := min(maxTasks, len(qs))
	families := make([]int, blocks)
	free := make(chan *respScratch, workers)
	par(blocks, func(b int) {
		lo, hi := b*len(qs)/blocks, (b+1)*len(qs)/blocks
		var arena []octant.Key
		var scratch *respScratch
		select {
		case scratch = <-free:
		default:
			scratch = new(respScratch)
		}
		ends := make([]int, 0, hi-lo)
		ci, fam := 0, 0
		for qi := lo; qi < hi; qi++ {
			if run := lis[off[qi]:off[qi+1]]; len(run) > 0 {
				for f.Local[ci].Tree != qs[qi].tree {
					ci++
				}
				var n int
				arena, n = appendResponse(arena, scratch, f.Local[ci].Leaves, run, qs[qi].r, k, algo)
				fam += n
			}
			ends = append(ends, len(arena))
		}
		select {
		case free <- scratch:
		default:
		}
		families[b] = fam
		start := 0
		for i, end := range ends {
			if end > start {
				// Capacity is clipped: the rebalance appends to merged
				// responses and must not run into the neighbor's.
				results[lo+i] = arena[start:end:end]
			}
			start = end
		}
	})
	for _, n := range families {
		st.families += n
	}
	return results
}

// respScratch is the reusable buffer space of appendResponse: the seeds
// of one query, and their keys while they are sorted and deduplicated.
type respScratch struct {
	seeds []octant.Octant
	keys  []octant.Key
}

// appendResponse appends to arena the response to query octant r given its
// candidate leaves, leaves[li] for the ascending indices li of run, and
// returns how many candidates it had to evaluate.  The old algorithm answers
// with the candidates themselves.  The new one answers with the union of
// their seeds within r, sorted and without repeats; Tk(o) is the same tree
// for every sibling of o (Section IV), so consecutive hits of one sibling
// family — adjacent in curve order — cost a single seed computation.  The
// union is formed in sc, so arena grows by the response alone.
func appendResponse(arena []octant.Key, sc *respScratch, leaves []octant.Key, run []int32, r octant.Key, k int, algo Algo) ([]octant.Key, int) {
	if algo != AlgoNew {
		for _, li := range run {
			arena = append(arena, leaves[li])
		}
		return arena, len(run)
	}
	ro := r.Octant()
	sc.seeds = sc.seeds[:0]
	families := 0
	var family octant.Key // parent of the previous hit
	for _, li := range run {
		o := leaves[li]
		if p := o.Parent(); p != family {
			family = p
			families++
			sc.seeds, _ = balance.AppendSeeds(sc.seeds, o.Octant(), ro, k)
		}
	}
	sc.keys = octant.AppendKeys(sc.keys[:0], sc.seeds)
	linear.SortKeys(sc.keys)
	return append(arena, slices.Compact(sc.keys)...), families
}

// rebalanceJob is one unit of the paper's Local rebalance: the seeds
// received for the local leaf rk of the given tree are balanced inside it
// (reconstructing Tk(o) ∩ r for all influencing octants o at once), and the
// resulting subtree replaces the leaf in the partition.  Jobs are
// independent, so Balance hands them to the worker pool; sub stays nil when
// the leaf need not split.
type rebalanceJob struct {
	tree  int32
	rk    octant.Key
	seeds []octant.Key
	sub   []octant.Key
}

// rebalanceJobs turns the answered queries back into local terms: query
// octant and response are shifted from the responder's frame into the frame
// of the leaf's own tree, and the responses one leaf drew from several
// responders are merged.  The jobs come back sorted by (tree, rk) — the order
// the splice merge consumes — with jobRange[i] delimiting the jobs of chunk
// f.Local[i].
func (f *Forest) rebalanceJobs(set *querySet, seeds [][]octant.Key) ([]rebalanceJob, [][2]int) {
	var jobs []rebalanceJob
	for i, resp := range seeds {
		if len(resp) == 0 {
			continue
		}
		inv := set.org[i].shift.Inverse()
		for j := range resp {
			resp[j] = inv.applyKey(resp[j])
		}
		jobs = append(jobs, rebalanceJob{tree: set.org[i].tree, rk: inv.applyKey(set.qs[i].r), seeds: resp})
	}
	slices.SortFunc(jobs, func(a, b rebalanceJob) int {
		return cmp.Or(cmp.Compare(a.tree, b.tree), octant.KeyCompare(a.rk, b.rk))
	})
	merged := jobs[:0]
	for _, j := range jobs {
		if n := len(merged); n > 0 && merged[n-1].tree == j.tree && merged[n-1].rk == j.rk {
			merged[n-1].seeds = append(merged[n-1].seeds, j.seeds...)
			continue
		}
		merged = append(merged, j)
	}
	// Every job belongs to a local chunk, and both lists ascend by tree.
	jobRange := make([][2]int, len(f.Local))
	j := 0
	for i := range f.Local {
		lo := j
		for j < len(merged) && merged[j].tree == f.Local[i].Tree {
			j++
		}
		jobRange[i] = [2]int{lo, j}
	}
	return merged, jobRange
}

// spliceReplaceKeys merges the reconstructed subtrees into the tree's leaf
// array: each job's subtree replaces the leaf it was built for.  jobs must
// be sorted by rk.  Every r is expected to be a current leaf — queries are
// built from the phase-1 leaves, which do not change until this phase, and
// SubtreeNewKeys(rk, ...) returns a complete subtree of rk — so replacing
// the leaf by its subtree in place preserves sortedness and linearity
// without the global sort+linearize pass this merge used to run.  Should
// an r ever not match a leaf, the general merge handles it.
func spliceReplaceKeys(leaves []octant.Key, jobs []rebalanceJob) []octant.Key {
	grow := 0
	for i := range jobs {
		if jobs[i].sub != nil {
			grow += len(jobs[i].sub) - 1
		}
	}
	if grow == 0 {
		return leaves
	}
	out := make([]octant.Key, 0, len(leaves)+grow)
	j, matched := 0, 0
	for _, leaf := range leaves {
		for j < len(jobs) && octant.KeyLess(jobs[j].rk, leaf) {
			j++ // r is not a leaf; resolved by the fallback below
		}
		if j < len(jobs) && jobs[j].rk == leaf {
			if sub := jobs[j].sub; sub != nil {
				out = append(out, sub...)
			} else {
				out = append(out, leaf)
			}
			j++
			matched++
		} else {
			out = append(out, leaf)
		}
	}
	if matched == len(jobs) {
		return out
	}
	merged := make([]octant.Key, 0, len(leaves)+grow+len(jobs))
	merged = append(merged, leaves...)
	for i := range jobs {
		merged = append(merged, jobs[i].sub...)
	}
	linear.SortKeys(merged)
	return linear.LinearizeKeys(merged)
}

// rebalanceOld is the pre-paper Local rebalance: the whole partition chunk
// is rebalanced at tree scope together with all received raw octants, using
// auxiliary octants for out-of-root and distant influences, and the result
// is clipped back to the owned range.
func rebalanceOld(root octant.Octant, leaves, recv []octant.Key, k int) []octant.Key {
	rootKey := octant.KeyOf(root)
	first, last := leaves[0], leaves[len(leaves)-1]
	in := append(make([]octant.Key, 0, len(leaves)+len(recv)), leaves...)
	var outside []octant.Octant
	for _, o := range recv {
		if rootKey.IsAncestorOrEqual(o) {
			in = append(in, o)
		} else {
			outside = append(outside, o.Octant())
		}
	}
	linear.SortKeys(in)
	in = slices.Compact(in)
	bal := balance.SubtreeOldExtended(root, octant.AppendOctants(make([]octant.Octant, 0, len(in)), in), outside, k)
	return clipToRangeKeys(octant.AppendKeys(leaves[:0], bal), first, last)
}
