package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const schema = "octbalance-benchmark/v1"

// Repetition counts.  A run measures for the number of seconds it is given;
// these only bound it from below (and fix it in -quick mode).
const (
	warmupReps   = 2
	minTimedReps = 5
	quickReps    = 2
	maxFailures  = 2 // give up on a run after this many failed repetitions
	// traceLoopShare is the part of a traced run's seconds spent in its
	// repetition loop; the rest is left to the probes and CheckForest.
	traceLoopShare = 0.45
)

//go:embed golden.json
var goldenJSON []byte

// goldenEntry pins what a workload must produce at seed 0.
type goldenEntry struct {
	Checksum   string `json:"checksum"`
	OctantsIn  int64  `json:"octants_in"`
	OctantsOut int64  `json:"octants_out"`
	CommMsgs   int64  `json:"comm_msgs"`
	CommBytes  int64  `json:"comm_bytes"`
}

func loadGolden() map[string]goldenEntry {
	g := make(map[string]goldenEntry)
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return g
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

// envInfo records where a run was measured.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentEnv() envInfo {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envInfo{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: gogc, Commit: commit, OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// recordedMetric is one metric of a run as the result file keeps it: the
// reported value, its definition, and the spread of the repetitions behind
// it where it is a statistic over repetitions.
type recordedMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
}

// runRecord is one run of one workload: the line appended to runs.jsonl and
// the input of -compare.
type runRecord struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Input    string  `json:"input"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Quick    bool    `json:"quick"`
	Seconds  float64 `json:"seconds"`
	Env      envInfo `json:"env"`

	WarmupReps int    `json:"warmup_reps"`
	TimedReps  int    `json:"timed_reps"`
	Percentile string `json:"percentile_note"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Checksum   string `json:"checksum"`
	OctantsIn  int64  `json:"octants_in"`
	OctantsOut int64  `json:"octants_out"`
	CommMsgs   int64  `json:"comm_msgs"`
	CommBytes  int64  `json:"comm_bytes"`

	Metrics   map[string]recordedMetric `json:"metrics"`
	Samples   map[string][]float64      `json:"samples,omitempty"`
	TraceFile string                    `json:"trace_file,omitempty"`
}

// run is the state of one run in progress.
type run struct {
	cfg    config
	wl     workloadDef
	inputs []*input // by variant
	gold   *goldenEntry
	rec    *runRecord
	// refs holds, per variant, the first good repetition: what every later
	// repetition of that variant must reproduce.
	refs    []*repResult
	first   int // the variant the run starts with
	nextRep int
}

// attempt runs one repetition on one variant of the input and checks its
// output.  A repetition that panicked, timed out, failed Validate or
// produced another forest than the reference counts as failed and its
// numbers are dropped.
func (r *run) attempt(wl workloadDef, variant int, opts repOpts) (repResult, bool) {
	opts.rep = r.nextRep
	r.nextRep++
	res, err := runRep(wl, r.inputs[variant], r.cfg.outDir, opts)
	if err == nil {
		err = r.check(res, variant)
	}
	r.rec.Attempted++
	if err != nil {
		r.rec.Failed++
		r.rec.Failures = append(r.rec.Failures, fmt.Sprintf("repetition %d (variant %d): %v", opts.rep, variant, err))
		return res, false
	}
	return res, true
}

// check compares a repetition's output with the golden values and with the
// first good repetition of the same variant.
func (r *run) check(res repResult, variant int) error {
	msgs, bytes := res.commTotals()
	if g := r.gold; g != nil {
		if variant == 0 {
			if got := fmt.Sprintf("%016x", res.checksum); got != g.Checksum {
				return fmt.Errorf("checksum %s, golden %s", got, g.Checksum)
			}
			if msgs != g.CommMsgs || bytes != g.CommBytes {
				return fmt.Errorf("comm %d msgs / %d bytes, golden %d / %d", msgs, bytes, g.CommMsgs, g.CommBytes)
			}
		}
		if (variant == 0 || r.wl.exactCounts) && (res.octIn != g.OctantsIn || res.octOut != g.OctantsOut) {
			return fmt.Errorf("octants %d → %d, golden %d → %d", res.octIn, res.octOut, g.OctantsIn, g.OctantsOut)
		}
	}
	ref := r.refs[variant]
	if ref == nil {
		r.refs[variant] = &res
		return nil
	}
	refMsgs, refBytes := ref.commTotals()
	if res.checksum != ref.checksum || res.octIn != ref.octIn || res.octOut != ref.octOut {
		return fmt.Errorf("forest differs from the first repetition: checksum %016x octants %d → %d, first %016x %d → %d",
			res.checksum, res.octIn, res.octOut, ref.checksum, ref.octIn, ref.octOut)
	}
	if msgs != refMsgs || bytes != refBytes {
		return fmt.Errorf("comm volume differs from the first repetition: %d msgs / %d bytes, first %d / %d",
			msgs, bytes, refMsgs, refBytes)
	}
	return nil
}

// warmup runs n untimed repetitions of the given variants.  On the socket
// workload it first runs each variant once on the in-process transport;
// those become the references, which makes every socket repetition a
// cross-transport check.
func (r *run) warmup(n int, variants []int) {
	if r.wl.socket {
		inproc := r.wl
		inproc.socket = false
		for _, v := range variants {
			r.attempt(inproc, v, repOpts{})
		}
	}
	for i := 0; i < n && r.rec.Failed < maxFailures; i++ {
		r.attempt(r.wl, variants[i%len(variants)], repOpts{})
	}
	r.rec.WarmupReps = r.rec.Attempted
}

func (r *run) set(name string, value float64, reps []float64) {
	spec, ok := specs[name]
	if !ok {
		panic("unknown metric " + name)
	}
	m := recordedMetric{Value: value, Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound}
	if len(reps) > 0 {
		m.Q1, m.Q3 = quartiles(reps)
		m.N = len(reps)
		r.rec.Samples[name] = reps
	}
	r.rec.Metrics[name] = m
}

// setMedian records the median of per-repetition values.
func (r *run) setMedian(name string, reps []float64) { r.set(name, median(reps), reps) }

func column(reps []repResult, field func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, rr := range reps {
		out[i] = field(rr)
	}
	return out
}

// measure is the untraced run: warm-ups, then timed repetitions for the
// configured number of seconds, then the end-to-end metrics.  Repetition i
// runs variant first+i, so that every run, whatever its seed, measures the
// same mix of variants in another order.
func (r *run) measure() {
	n := r.wl.variants
	order := make([]int, n)
	for i := range order {
		order[i] = (r.first + i) % n
	}
	reps := 0 // 0: as many as fit into the seconds
	if r.cfg.quick {
		reps = quickReps
		r.warmup(0, order[:reps])
	} else {
		r.warmup(warmupReps, order)
	}
	var timed []repResult
	var longest time.Duration
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; r.rec.Failed < maxFailures; i++ {
		if reps > 0 && len(timed) >= reps {
			break
		}
		if reps == 0 && len(timed) >= minTimedReps && time.Since(start)+longest > budget {
			break
		}
		t := time.Now()
		res, ok := r.attempt(r.wl, order[i%n], repOpts{})
		longest = max(longest, time.Since(t))
		if ok {
			timed = append(timed, res)
		}
	}
	r.rec.TimedReps = len(timed)
	r.rec.Percentile = fmt.Sprintf("balance_wall_p75_s is the 75th percentile of %d repetitions (%d beyond it); "+
		"the highest percentile with at least ten samples beyond it at this count is p%d",
		len(timed), samplesBeyond(len(timed), 75), tailPercentile(len(timed)))
	if len(timed) == 0 {
		return
	}

	wall := column(timed, func(x repResult) float64 { return x.balanceS })
	_, p75 := quartiles(wall)
	r.setMedian("setup_s", column(timed, func(x repResult) float64 { return x.setupS }))
	r.setMedian("balance_wall_s", wall)
	r.set("balance_wall_p75_s", p75, nil)
	r.setMedian("balance_moct_per_s", column(timed, func(x repResult) float64 { return float64(x.octOut) / 1e6 / x.balanceS }))
	r.setMedian("pipeline_wall_s", column(timed, func(x repResult) float64 { return x.pipelineS }))
	r.setMedian("balance_cpu_s", column(timed, func(x repResult) float64 { return x.cpuS }))
	r.setMedian("balance_alloc_mb", column(timed, func(x repResult) float64 { return x.allocB / 1e6 }))
	r.setMedian("live_heap_mb", column(timed, func(x repResult) float64 { return x.liveB / 1e6 }))
}

// Repetition modes of the traced run, cycled so that all three see the
// same machine state.
const (
	modeSpans = iota // benchmark spans on
	modePlain        // nothing attached: the baseline of both overheads
	modeObs          // obs.Tracer attached to the world
	numModes
)

// traced is the traced run, all on the run's first variant: repetitions
// cycling through the three modes, one more repetition that carries the
// layer probes, then the whole-forest balance check, the per-layer metrics
// and the trace file.
func (r *run) traced() {
	v := r.first
	r.warmup(1, []int{v})
	spans := newRecorder()
	var byMode [numModes][]repResult
	var all []repResult
	var longest time.Duration
	budget := time.Duration(r.cfg.seconds * traceLoopShare * float64(time.Second))
	start := time.Now()
	for cycle := 0; r.rec.Failed < maxFailures; cycle++ {
		if cycle > 0 && (r.cfg.quick || time.Since(start)+numModes*longest > budget) {
			break
		}
		for mode := 0; mode < numModes; mode++ {
			opts := repOpts{obs: mode == modeObs}
			if mode == modeSpans {
				opts.rec = spans
			}
			t := time.Now()
			res, ok := r.attempt(r.wl, v, opts)
			longest = max(longest, time.Since(t))
			if ok {
				byMode[mode] = append(byMode[mode], res)
				all = append(all, res)
			}
		}
	}
	r.rec.TimedReps = len(all)
	r.rec.Percentile = "per-layer medians only"

	p := newProbe(r.cfg.seed, r.wl.ranks)
	probed, ok := r.attempt(r.wl, v, repOpts{rec: spans, probe: p})
	if !ok || len(byMode[modeSpans]) == 0 || len(byMode[modePlain]) == 0 || len(byMode[modeObs]) == 0 {
		return
	}
	in, ref := r.inputs[v], r.refs[v]
	for name, value := range p.local(in) {
		r.set(name, value, nil)
	}
	if err := p.verify(in); err != nil {
		r.rec.Failed++
		r.rec.Failures = append(r.rec.Failures, "forest.CheckForest: "+err.Error())
	}
	recorded := spans.snapshot()

	// forest: phases from PhaseTimes, the other collectives from spans.
	withSpans := byMode[modeSpans]
	r.setMedian("forest.local_balance_s", column(withSpans, func(x repResult) float64 { return x.phases.LocalBalance.Seconds() }))
	r.setMedian("forest.notify_s", column(withSpans, func(x repResult) float64 { return x.phases.Notify.Seconds() }))
	r.setMedian("forest.query_response_s", column(withSpans, func(x repResult) float64 { return x.phases.QueryResponse.Seconds() }))
	r.setMedian("forest.rebalance_s", column(withSpans, func(x repResult) float64 { return x.phases.Rebalance.Seconds() }))
	r.setMedian("forest.phase_imbalance", column(withSpans, func(x repResult) float64 { return x.imbalance }))
	for _, call := range []string{"refine", "coarsen", "partition", "ghost", "checksum"} {
		if perRep := perRepMax(recorded, call); len(perRep) > 0 {
			r.setMedian("forest."+call+"_s", perRep)
		} else {
			r.set("forest."+call+"_s", 0, nil) // the workload never makes this call
		}
	}
	r.set("forest.octants_in", float64(ref.octIn), nil)
	r.set("forest.octants_out", float64(ref.octOut), nil)

	// notify: cross-rank maximum of each probe iteration.
	notifyS := make([]float64, notifyIters)
	for i, ranks := range p.notifyDur {
		var worst time.Duration
		for _, d := range ranks {
			worst = max(worst, d)
		}
		notifyS[i] = worst.Seconds()
	}
	r.setMedian("notify.reverse_s", notifyS)
	r.set("notify.msgs", float64(probed.stats["bench/notify"].Messages)/notifyIters, nil)
	r.set("notify.bytes", float64(probed.stats["bench/notify"].Bytes)/notifyIters, nil)

	// comm: exact logical volumes, then the probes.
	msgs, bytes := ref.commTotals()
	r.set("comm_msgs", float64(msgs), nil)
	r.set("comm_bytes", float64(bytes), nil)
	r.set("comm.query_response_msgs", float64(ref.stats["query-response"].Messages), nil)
	r.set("comm.query_response_bytes", float64(ref.stats["query-response"].Bytes), nil)
	r.set("comm.notify_msgs", float64(ref.stats["notify"].Messages), nil)
	r.set("comm.notify_bytes", float64(ref.stats["notify"].Bytes), nil)
	r.set("comm.partition_bytes", float64(ref.stats["bench/partition"].Bytes), nil)
	r.setMedian("comm.max_queue_depth", column(all, func(x repResult) float64 {
		var depth int64
		for _, ph := range balancePhases {
			depth = max(depth, x.stats[ph].MaxQueueDepth)
		}
		return float64(depth)
	}))
	r.set("comm.rtt_us", p.rttUs, nil)
	r.set("comm.stream_mb_per_s", p.streamMBps, nil)
	r.set("comm.allgather_us", p.allgatherUs, nil)

	// netcomm: zero wherever there is no netcomm layer.
	r.setMedian("netcomm.rendezvous_s", column(all, func(x repResult) float64 { return x.rendezvousS }))
	r.setMedian("netcomm.wire_bytes", column(all, func(x repResult) float64 { return float64(x.net.WireBytes) }))
	r.setMedian("netcomm.data_packets", column(all, func(x repResult) float64 { return float64(x.net.DataPackets) }))
	r.setMedian("netcomm.ack_packets", column(all, func(x repResult) float64 { return float64(x.net.AckPackets) }))
	r.setMedian("netcomm.retries", column(all, func(x repResult) float64 { return float64(x.net.Retries) }))
	if r.wl.socket && bytes > 0 {
		r.setMedian("netcomm.overhead_ratio", column(all, func(x repResult) float64 { return float64(x.net.WireBytes) / float64(bytes) }))
	} else {
		r.set("netcomm.overhead_ratio", 0, nil)
	}

	r.set("mesh.nodes_s", p.nodesS, nil)
	r.set("mesh.nodes_independent", float64(p.nodes), nil)

	// Tracing overheads against the repetitions with nothing attached.
	wallOf := func(mode int) float64 {
		return median(column(byMode[mode], func(x repResult) float64 { return x.balanceS }))
	}
	r.set("obs.tracer_overhead_frac", wallOf(modeObs)/wallOf(modePlain)-1, nil)
	r.set("bench.span_overhead_frac", wallOf(modeSpans)/wallOf(modePlain)-1, nil)
	self := selfTimes(recorded)
	var unattributed []float64
	for _, s := range recorded {
		if s.Name == "rank" && s.Rank == 0 {
			unattributed = append(unattributed, self[s.ID].Seconds())
		}
	}
	r.setMedian("bench.unattributed_s", unattributed)
	r.set("bench.failed_frac", float64(r.rec.Failed)/float64(r.rec.Attempted), nil)

	r.rec.TraceFile = filepath.Join(r.cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", r.wl.name, r.cfg.seed))
	if err := writeTrace(r.rec.TraceFile, recorded); err != nil {
		r.rec.Failed++
		r.rec.Failures = append(r.rec.Failures, "writing trace: "+err.Error())
	}
}

// newRun prepares a run: the workload, every variant of its input, the
// golden values and an empty record.
func newRun(cfg config) (*run, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, wl: wl, first: wl.firstVariant(cfg.seed),
		inputs: make([]*input, wl.variants), refs: make([]*repResult, wl.variants)}
	for v := range r.inputs {
		r.inputs[v] = wl.input(v, cfg.quick)
	}
	r.rec = &runRecord{
		Schema: schema, Workload: wl.name, Why: wl.why, Input: r.inputs[r.first].String(), Seed: cfg.seed,
		Quick: cfg.quick, Seconds: cfg.seconds, Env: currentEnv(),
		Metrics: make(map[string]recordedMetric), Samples: make(map[string][]float64),
	}
	if !cfg.quick { // the tiny meshes of -quick have no pinned outputs
		g, ok := loadGolden()[wl.name]
		if !ok {
			return nil, fmt.Errorf("golden.json has no entry for %s", wl.name)
		}
		r.gold = &g
	}
	return r, nil
}

// runWorkload runs one workload once, as configured, and returns its record.
func runWorkload(cfg config) (*runRecord, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// finish measures and closes the record.
func (r *run) finish() *runRecord {
	rec := r.rec
	want := endToEnd
	if r.cfg.trace {
		rec.Trace = 1
		want = perLayer
		r.traced()
	} else {
		r.measure()
	}
	if ref := r.refs[r.first]; ref != nil {
		rec.Checksum = fmt.Sprintf("%016x", ref.checksum)
		rec.OctantsIn, rec.OctantsOut = ref.octIn, ref.octOut
		rec.CommMsgs, rec.CommBytes = ref.commTotals()
	}
	rec.Correct = rec.Failed == 0 && len(rec.Metrics) == len(want)
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rec.Correct = false
			rec.Failures = append(rec.Failures, fmt.Sprintf("metric %s is %v", name, m.Value))
		}
	}
	return rec
}
