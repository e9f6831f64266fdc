// Command bench is the benchmark driver.  It runs a workload end to end at
// one or more rank counts, prints the per-phase balance timings and
// communication volumes, and writes a machine-readable record per rank count
// (schema octbalance-bench/v1).  With more than one rank count it also prints
// the per-phase scaling table of Figures 15 and 17.  -workload notify runs the
// Section V pattern-reversal sweep instead and writes one
// octbalance-notifybench/v2 record.  With -trace it exports each run as a
// Chrome trace-event file (load it in chrome://tracing or Perfetto);
// -validate re-reads a record through its schema validator.
//
// Examples:
//
//	bench -workload fractal -ranks 8 -level 3 -algo both        # per-phase timings
//	bench -ranks 1,2,8,16 -level 2,2,3,3 -algo both             # Fig. 15 weak scaling
//	bench -workload icesheet -grid 10 -level 1 -depth 6 \
//	      -ranks 1,2,4,8,16 -algo both                          # Fig. 17 strong scaling
//	bench -workload notify -ranks 4,12,24,48,96,192 -codec both # Section V
//	bench -workers 1,4 -workload fractal                        # serial and 4-worker runs
//	bench -validate BENCH_fractal.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"

	octbalance "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses the command line and runs the selected sweep, printing to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		dim       = fs.Int("dim", 3, "dimension (2 or 3)")
		ranksF    = fs.String("ranks", "8", "comma-separated simulated rank counts")
		levelF    = fs.String("level", "2", "base uniform refinement level: one value, or one per rank count")
		depth     = fs.Int("depth", 4, "additional adaptive refinement depth")
		k         = fs.Int("k", 0, "balance condition 1..dim (0 = full corner balance)")
		workloadF = fs.String("workload", "fractal", "workload: fractal, icesheet, random, notify")
		algoF     = fs.String("algo", "new", "algorithm: old, new, both")
		notifyF   = fs.String("notify", "notify", "pattern reversal: naive, ranges, notify")
		grid      = fs.Int("grid", 8, "ice sheet tree grid extent")
		seed      = fs.Int64("seed", 42, "random workload seed")
		prob      = fs.Int("prob", 22, "random workload split probability (percent)")
		out       = fs.String("out", "", "output record path (default BENCH_<workload>.json; _p<P> is added per rank count of a sweep)")
		traceOut  = fs.String("trace", "", "also export a Chrome trace-event file per run to this path")
		workersF  = fs.String("workers", "0", "comma-separated rank-local worker pool sizes (0 = the CPUs shared among the ranks, 1 = serial, -1 = one per CPU)")
		codecF    = fs.String("codec", "v0", "wire codec: v0, v1, both (both records a run per codec)")
		poolF     = fs.Bool("pool", true, "recycle payload buffers through the comm pool")
		validateF = fs.String("validate", "", "validate an existing record and exit")
	)
	fs.Parse(args)

	if *validateF != "" {
		return validate(*validateF, w)
	}
	ranks, err := parseInts("-ranks", *ranksF, 1)
	if err != nil {
		return err
	}
	var codecs []octbalance.WireCodec
	if *codecF == "both" {
		codecs = []octbalance.WireCodec{octbalance.WireV0, octbalance.WireV1}
	} else {
		codec, err := octbalance.ParseWireCodec(*codecF)
		if err != nil {
			return err
		}
		codecs = []octbalance.WireCodec{codec}
	}
	octbalance.SetCommPooling(*poolF)
	recPath := *out
	if recPath == "" {
		recPath = "BENCH_" + *workloadF + ".json"
	}

	if *workloadF == "notify" {
		rec, err := notifySweep(ranks, codecs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "pattern reversal schemes (Section V): message count / byte volume")
		fmt.Fprintf(w, "pattern: SFC-local window %d plus long-range links (p=%.2f)\n\n", notifyWindow, notifyLongRange)
		fmt.Fprint(w, rec.table())
		fmt.Fprintln(w, "\nnotify returns exact sender lists with point-to-point messages only;")
		fmt.Fprintln(w, "ranges may include false positives that receive zero-length messages (Section V).")
		if err := writeJSON(recPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nrecord: %s\n", recPath)
		return nil
	}

	levels, err := parseInts("-level", *levelF, 0)
	if err != nil {
		return err
	}
	switch len(levels) {
	case len(ranks):
	case 1:
		for len(levels) < len(ranks) {
			levels = append(levels, levels[0])
		}
	default:
		return fmt.Errorf("-level has %d values for %d rank counts", len(levels), len(ranks))
	}
	workerCounts, err := parseInts("-workers", *workersF, -1)
	if err != nil {
		return err
	}

	var scheme octbalance.NotifyScheme
	switch *notifyF {
	case "naive":
		scheme = octbalance.SchemeNaive
	case "ranges":
		scheme = octbalance.SchemeRanges
	case "notify":
		scheme = octbalance.SchemeNotify
	default:
		return fmt.Errorf("unknown notify scheme %q", *notifyF)
	}

	var algos []octbalance.Algo
	switch *algoF {
	case "old":
		algos = []octbalance.Algo{octbalance.AlgoOld}
	case "new":
		algos = []octbalance.Algo{octbalance.AlgoNew}
	case "both":
		algos = []octbalance.Algo{octbalance.AlgoOld, octbalance.AlgoNew}
	default:
		return fmt.Errorf("unknown algorithm %q", *algoF)
	}

	// experiment builds the workload with base level lvl.
	experiment := func(lvl int) (octbalance.Experiment, error) {
		e := octbalance.Experiment{BaseLevel: lvl, MaxLevel: lvl + *depth, K: *k}
		switch *workloadF {
		case "fractal":
			e.Conn = octbalance.FractalForest(*dim)
			e.Refine = octbalance.FractalRefine(e.MaxLevel)
		case "icesheet":
			is := octbalance.NewIceSheet(2, *grid, e.MaxLevel)
			e.Conn = is.Conn
			e.Refine = is.Refine
		case "random":
			e.Conn = octbalance.FractalForest(*dim)
			e.Refine = octbalance.RandomRefine(*seed, *prob, e.MaxLevel)
		default:
			return e, fmt.Errorf("unknown workload %q", *workloadF)
		}
		return e, nil
	}
	if *workloadF == "icesheet" && *dim != 2 {
		log.Print("note: ice sheet workload is 2D; ignoring -dim")
	}

	var recs []*obs.BenchRecord
	for i, p := range ranks {
		e, err := experiment(levels[i])
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(w, "forest: %v, ranks %v, workload %s, notify %s\n\n", e.Conn, ranks, *workloadF, scheme)
		}
		e.Ranks = p
		rec := &obs.BenchRecord{
			Schema:    obs.BenchSchema,
			Workload:  *workloadF,
			Dim:       e.Conn.Dim(),
			Ranks:     p,
			K:         *k,
			Notify:    scheme.String(),
			BaseLevel: e.BaseLevel,
			MaxLevel:  e.MaxLevel,
			Env:       obs.CurrentEnv(),
		}
		if rec.K == 0 {
			rec.K = rec.Dim
		}
		for _, algo := range algos {
			for _, wk := range workerCounts {
				for _, codec := range codecs {
					e.Options = octbalance.BalanceOptions{Algo: algo, Notify: scheme}
					e.Workers, e.Codec = wk, codec
					e.Tracer = octbalance.NewTracer(p)
					run := e.Run().BenchRun()
					run.Workers = max(1, int(e.Tracer.MaxGauge(obs.GaugeLocalWorkers)))
					rec.Runs = append(rec.Runs, run)
					if *traceOut != "" {
						path := *traceOut
						if len(ranks) > 1 {
							path = insertSuffix(path, fmt.Sprintf("_p%d", p))
						}
						if len(algos) > 1 {
							path = insertSuffix(path, "_"+algo.String())
						}
						if len(workerCounts) > 1 {
							path = insertSuffix(path, fmt.Sprintf("_wk%d", wk))
						}
						if len(codecs) > 1 {
							path = insertSuffix(path, "_"+codec.String())
						}
						if err := e.Tracer.WriteTraceFile(path); err != nil {
							return err
						}
						fmt.Fprintf(w, "trace (P=%d, %s, %d workers, %s): %s\n", p, algo, run.Workers, codec, path)
					}
				}
			}
		}
		if err := agree(rec.Runs); err != nil {
			return fmt.Errorf("P=%d: %w", p, err)
		}
		recs = append(recs, rec)
	}

	fmt.Fprint(w, runTable(recs))
	if len(recs) > 1 || len(algos) > 1 {
		fmt.Fprint(w, "\n", scalingTable(recs, len(algos)))
	}
	fmt.Fprintln(w)
	for _, rec := range recs {
		path := recPath
		if len(recs) > 1 {
			path = insertSuffix(path, fmt.Sprintf("_p%d", rec.Ranks))
		}
		if err := obs.WriteBenchRecord(path, rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "record: %s\n", path)
	}
	return nil
}

// agree checks that every run of one rank count produced the same balanced
// forest size, whatever its algorithm, worker count or codec.
func agree(runs []obs.BenchRun) error {
	for _, r := range runs[1:] {
		if r.OctantsAfter != runs[0].OctantsAfter {
			return fmt.Errorf("runs disagree: %s/%d workers/%s gave %d octants, %s/%d workers/%s gave %d",
				runs[0].Algo, runs[0].Workers, runs[0].Codec, runs[0].OctantsAfter,
				r.Algo, r.Workers, r.Codec, r.OctantsAfter)
		}
	}
	return nil
}

// runTable lists every run of the sweep: octant counts, the cross-rank
// maximum of each phase and the communication volumes.
func runTable(recs []*obs.BenchRecord) *Table {
	tbl := NewTable("one-pass 2:1 balance (cross-rank max, seconds)",
		"P", "algo", "wk", "codec", "octants before", "octants after", "total", "local bal", "notify",
		"query/resp", "rebalance", "imbalance", "msgs", "bytes", "raw bytes", "ratio")
	for _, rec := range recs {
		for _, run := range rec.Runs {
			// Compression ratio over the codec-metered phases only, so
			// unmetered collective traffic does not dilute it.
			var metered int64
			for phase, v := range run.Comm {
				if !strings.HasPrefix(phase, "obs/") && v.RawBytes > 0 {
					metered += v.Bytes
				}
			}
			ratio := "-"
			if metered > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(run.TotalRawBytes)/float64(metered))
			}
			total := run.Phases[octbalance.PhaseTotal]
			tbl.AddRow(rec.Ranks, run.Algo, run.Workers, run.Codec, run.OctantsBefore, run.OctantsAfter,
				total.Max, run.Phases["local-balance"].Max, run.Phases["notify"].Max,
				run.Phases["query-response"].Max, run.Phases["rebalance"].Max,
				total.Imbalance, run.TotalMessages, run.TotalBytes, run.TotalRawBytes, ratio)
		}
	}
	return tbl
}

// scalingTable is the per-phase table of Figures 15 and 17: for every phase
// and run variant, each rank count's seconds and seconds per (million
// octants per rank) per algorithm.  Runs within a record are ordered
// algorithm-major, so a variant v of algorithm a is run a*nv+v.  The ideal
// column scales the last algorithm's time at the first rank count with the
// octants per rank: constant normalized time for weak scaling, time ∝ 1/P
// for strong scaling.  old/new is the Section VI speedup.
func scalingTable(recs []*obs.BenchRecord, nAlgos int) *Table {
	header := []string{"phase", "P", "wk", "codec", "octants", "oct/rank"}
	nv := len(recs[0].Runs) / nAlgos
	for a := 0; a < nAlgos; a++ {
		name := recs[0].Runs[a*nv].Algo
		header = append(header, name+" [s]", name+" [s/(M/rank)]")
	}
	header = append(header, "ideal [s]")
	if nAlgos == 2 {
		header = append(header, "old/new")
	}
	tbl := NewTable("per-phase scaling (cross-rank max; ideal: time ∝ octants per rank)", header...)
	phases := append([]string{octbalance.PhaseTotal}, octbalance.BalancePhases...)
	for _, phase := range phases {
		for v := 0; v < nv; v++ {
			var ideal0, perRank0 float64
			for i, rec := range recs {
				first := rec.Runs[v]
				perRank := float64(first.OctantsAfter) / float64(rec.Ranks)
				row := []interface{}{phase, rec.Ranks, first.Workers, first.Codec, first.OctantsAfter, int64(perRank)}
				var secs []float64
				for a := 0; a < nAlgos; a++ {
					s := rec.Runs[a*nv+v].Phases[phase].Max
					secs = append(secs, s)
					row = append(row, s, s/(perRank/1e6))
				}
				if i == 0 {
					ideal0, perRank0 = secs[nAlgos-1], perRank
				}
				row = append(row, ideal0*perRank/perRank0)
				if nAlgos == 2 {
					ratio := "-"
					if secs[1] > 0 {
						ratio = fmt.Sprintf("%.2fx", secs[0]/secs[1])
					}
					row = append(row, ratio)
				}
				tbl.AddRow(row...)
			}
		}
	}
	return tbl
}

// validate reads a record, bench or notify, and checks it against its
// schema.
func validate(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if head.Schema == notifySchema {
		var rec notifyRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := rec.validate(); err != nil {
			return fmt.Errorf("%s: invalid: %w", path, err)
		}
		fmt.Fprintf(w, "%s: valid %s record (%d rows)\n", path, rec.Schema, len(rec.Sizes))
		return nil
	}
	rec, err := obs.ReadBenchRecord(path)
	if err != nil {
		return err
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("%s: invalid: %w", path, err)
	}
	fmt.Fprintf(w, "%s: valid %s record (%s, %d ranks, %d runs)\n",
		path, rec.Schema, rec.Workload, rec.Ranks, len(rec.Runs))
	return nil
}

// writeJSON writes v as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseInts parses a comma-separated list of integers, each at least lo.
func parseInts(name, s string, lo int) ([]int, error) {
	var vs []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < lo {
			return nil, fmt.Errorf("%s: bad value %q (want an integer >= %d)", name, f, lo)
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// insertSuffix inserts s before the path's extension: trace.json ->
// trace_new.json.
func insertSuffix(path, s string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + s + path[i:]
	}
	return path + s
}
